//! `wars-table4`: the paper's prediction path (§5, Table 4).
//!
//! Set-up refits the YMMR read and write mixtures to the Table 2
//! percentiles and builds N=3 models for the six Table 4 `(R, W)` pairs of
//! five profiles: LNKD-SSD, LNKD-DISK, YMMR, WAN and the refitted YMMR.
//! The timed work is `TVisibility::simulate` on one thread over all 30
//! cells; one round = every cell once, under one seed shared by the cells
//! of a round so that latency percentiles are comparable across `(R, W)`.

use crate::measure::{
    end_to_end, median, metric, mix, pooled_rates, with_rss, Checks, Gauge, Interval, Outcome,
    Stopwatch,
};
use crate::Params;
use pbs_core::ReplicaConfig;
use pbs_dist::fit::{fit_mixture_to_percentiles, MixtureFit, PercentileTarget};
use pbs_dist::production::{self as fits, published_nrmse};
use pbs_dist::LatencyDistribution;
use pbs_mc::{Mergeable, Runner, Summary};
use pbs_wars::production::ProductionProfile;
use pbs_wars::sweep::TABLE4_PAIRS;
use pbs_wars::trial::{run_trial, TrialResult, TrialScratch};
use pbs_wars::{IidModel, LatencyModel, TVisibility, WarsSample};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// WARS trials per cell per round.
    pub trials: usize,
    /// Draws per refitted mixture for the Table 2 percentile check.
    pub refit_samples: usize,
}

impl Shape {
    /// The benchmark's shape: a round of 30 × 50k trials.
    pub const FULL: Shape = Shape {
        trials: 50_000,
        refit_samples: 1_000_000,
    };
    /// A quick shape for tests.
    pub const SMOKE: Shape = Shape {
        trials: 2_000,
        refit_samples: 200_000,
    };
}

/// Offsets (ms) at which `P(consistent)` must not decrease.
const T_GRID: [f64; 9] = [
    0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0,
];

/// Latency percentiles compared across `(R, W)`.
const LATENCY_PCTS: [f64; 3] = [50.0, 99.0, 99.9];

/// Monte Carlo standard errors allowed below the Eq. 1 bound.
const BOUND_SIGMAS: f64 = 4.0;

/// Trials per staged batch in the traced loop.
const TRACE_BATCH: usize = 256;

/// One Table 4 cell: a profile at one `(R, W)`.
pub struct Cell {
    /// Profile name.
    pub profile: &'static str,
    /// Whether every replica's legs are i.i.d. (all but WAN).
    pub iid: bool,
    /// `(N, R, W)`.
    pub cfg: ReplicaConfig,
    /// The WARS model.
    pub model: Box<dyn LatencyModel>,
}

/// The refitted YMMR mixtures (write, read).
pub struct Refit {
    /// Fit of the Table 2 write percentiles.
    pub write: MixtureFit,
    /// Fit of the Table 2 read percentiles.
    pub read: MixtureFit,
}

/// Set-up: refit the YMMR mixtures, then build the 30 cells.
pub fn setup() -> (Refit, Vec<Cell>, Duration) {
    let fit_start = Instant::now();
    let refit = Refit {
        write: fit_mixture_to_percentiles(&fits::table2_write_targets()),
        read: fit_mixture_to_percentiles(&fits::table2_read_targets()),
    };
    let fit_time = fit_start.elapsed();
    let mut cells = Vec::new();
    for profile in ProductionProfile::ALL {
        for &(r, w) in &TABLE4_PAIRS {
            let cfg = ReplicaConfig::new(3, r, w).expect("Table 4 pairs are valid for N=3");
            cells.push(Cell {
                profile: profile.name(),
                iid: profile != ProductionProfile::Wan,
                cfg,
                model: profile.model(cfg),
            });
        }
    }
    let refit_model = IidModel::w_ars(
        ReplicaConfig::new(3, 1, 1).expect("valid"),
        "YMMR-refit",
        Arc::new(refit.write.mixture()),
        Arc::new(refit.read.mixture()),
    );
    for &(r, w) in &TABLE4_PAIRS {
        let cfg = ReplicaConfig::new(3, r, w).expect("Table 4 pairs are valid for N=3");
        cells.push(Cell {
            profile: "YMMR-refit",
            iid: true,
            cfg,
            model: Box::new(refit_model.with_config(cfg)),
        });
    }
    (refit, cells, fit_time)
}

/// `C(n, k)` for the small arguments of Eq. 1.
fn binomial(n: u32, k: u32) -> f64 {
    if k > n {
        return 0.0;
    }
    (0..k).fold(1.0, |acc, i| acc * (n - i) as f64 / (i + 1) as f64)
}

/// Eq. 1: the probability that a uniformly random read quorum misses a
/// uniformly random write quorum, `C(N−W, R) / C(N, R)`.
pub fn eq1_miss(cfg: ReplicaConfig) -> f64 {
    binomial(cfg.n() - cfg.w(), cfg.r()) / binomial(cfg.n(), cfg.r())
}

/// The checks on one round's curves (`tvs[i]` belongs to `cells[i]`).
pub fn check_round(cells: &[Cell], tvs: &[TVisibility], checks: &mut Checks) {
    for (cell, tv) in cells.iter().zip(tvs) {
        let name = format!("{} {}", cell.profile, cell.cfg);
        let p0 = tv.prob_consistent(0.0);
        if cell.cfg.is_strict() {
            checks.expect(p0 == 1.0, || {
                format!("{name}: strict quorum has P_c(0) = {p0}, not 1")
            });
        }
        if cell.iid {
            let miss = eq1_miss(cell.cfg);
            let se = (miss * (1.0 - miss) / tv.trials() as f64).sqrt();
            let floor = 1.0 - miss - BOUND_SIGMAS * se;
            checks.expect(p0 >= floor, || {
                format!(
                    "{name}: P_c(0) = {p0} is below the Eq. 1 bound {}",
                    1.0 - miss
                )
            });
        }
        let curve: Vec<f64> = T_GRID.iter().map(|&t| tv.prob_consistent(t)).collect();
        checks.expect(curve.windows(2).all(|w| w[0] <= w[1]), || {
            format!("{name}: P_c(t) decreases along {T_GRID:?}: {curve:?}")
        });
    }
    // Under a common seed every trial draws the same legs whatever R and
    // W are, so the R-th fastest response (W-th fastest ack) can only get
    // later as R (W) grows.
    let find = |profile: &str, r: u32, w: u32| {
        cells
            .iter()
            .position(|c| c.profile == profile && c.cfg.r() == r && c.cfg.w() == w)
    };
    for cell in cells {
        let (profile, r, w) = (cell.profile, cell.cfg.r(), cell.cfg.w());
        let this = find(profile, r, w).expect("cell is in the list");
        for &pct in &LATENCY_PCTS {
            if let Some(more_r) = find(profile, r + 1, w) {
                let (a, b) = (
                    tvs[this].read_latency_percentile(pct),
                    tvs[more_r].read_latency_percentile(pct),
                );
                checks.expect(a <= b, || {
                    format!(
                        "{profile}: read p{pct} falls from {a} to {b} as R goes {r}→{}",
                        r + 1
                    )
                });
            }
            if let Some(more_w) = find(profile, r, w + 1) {
                let (a, b) = (
                    tvs[this].write_latency_percentile(pct),
                    tvs[more_w].write_latency_percentile(pct),
                );
                checks.expect(a <= b, || {
                    format!(
                        "{profile}: write p{pct} falls from {a} to {b} as W goes {w}→{}",
                        w + 1
                    )
                });
            }
        }
    }
}

/// Order-statistic standard errors allowed around a sampled percentile.
const RANK_SIGMAS: f64 = 4.0;

/// Range-normalised RMSE of `got` against `want`.
fn nrmse(got: &[f64], want: &[f64]) -> f64 {
    let mse = got
        .iter()
        .zip(want)
        .map(|(g, w)| (g - w) * (g - w))
        .sum::<f64>()
        / want.len() as f64;
    let lo = want.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = want.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    mse.sqrt() / (hi - lo)
}

/// Draw `n` samples from `dist` and return the N-RMSE of their
/// percentiles against `targets`.
///
/// A sampled percentile is uncertain: its nearest rank `k` has a standard
/// error of `sqrt(n p (1 − p))` ranks, which at p99 of the YMMR read tail
/// is worth 0.7 ms at 10⁶ draws. Each percentile is therefore taken as
/// the point of the order statistics `k ± 4σ` nearest its target, so
/// sampling noise alone cannot fail the comparison while a misfit larger
/// than that interval still does.
pub fn sampled_nrmse(
    dist: &dyn LatencyDistribution,
    targets: &[PercentileTarget],
    n: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
    xs.sort_by(|a, b| a.total_cmp(b));
    let got: Vec<f64> = targets
        .iter()
        .map(|t| {
            let p = t.pct / 100.0;
            let k = (p * n as f64).ceil() as usize;
            let spread = (RANK_SIGMAS * (n as f64 * p * (1.0 - p)).sqrt()).ceil() as usize;
            let lo = xs[k.saturating_sub(spread).clamp(1, n) - 1];
            let hi = xs[(k + spread).clamp(1, n) - 1];
            t.value_ms.clamp(lo, hi)
        })
        .collect();
    let want: Vec<f64> = targets.iter().map(|t| t.value_ms).collect();
    nrmse(&got, &want)
}

/// The refit check: sampled percentiles of the refitted mixtures match
/// Table 2 within the paper's published N-RMSE (given in percent).
pub fn check_refit(refit: &Refit, samples: usize, seed: u64, checks: &mut Checks) {
    for (what, fit, targets, published) in [
        (
            "write",
            &refit.write,
            fits::table2_write_targets(),
            published_nrmse::YMMR_W,
        ),
        (
            "read",
            &refit.read,
            fits::table2_read_targets(),
            published_nrmse::YMMR_ARS,
        ),
    ] {
        let got = sampled_nrmse(&fit.mixture(), &targets, samples, mix(seed, 0xF17)) * 100.0;
        checks.expect(got <= published, || {
            format!(
                "refitted YMMR {what} mixture: sampled N-RMSE {got:.3}% > published {published}%"
            )
        });
    }
}

/// Per-stage time of the traced loop, plus the summaries it rebuilds.
#[derive(Default)]
struct TracedShard {
    thresholds: Summary,
    read: Summary,
    write: Summary,
    consistent_at_zero: u64,
    sample: Duration,
    trial: Duration,
    record: Duration,
}

impl Mergeable for TracedShard {
    fn merge(&mut self, other: Self) {
        self.thresholds.merge(other.thresholds);
        self.read.merge(other.read);
        self.write.merge(other.write);
        self.consistent_at_zero += other.consistent_at_zero;
        self.sample += other.sample;
        self.trial += other.trial;
        self.record += other.record;
    }
}

/// The traced replica of `TVisibility::simulate`: the same RNG stream and
/// the same calls, staged in batches so each layer gets its own span.
fn traced_cell(cell: &Cell, trials: usize, seed: u64) -> TracedShard {
    let cfg = cell.model.config();
    Runner::new(trials, seed, 1).run(|rng, info| {
        let mut acc = TracedShard::default();
        let mut samples: Vec<WarsSample> =
            (0..TRACE_BATCH).map(|_| WarsSample::default()).collect();
        let mut results: Vec<TrialResult> = Vec::with_capacity(TRACE_BATCH);
        let mut scratch = TrialScratch::default();
        let mut left = info.trials;
        while left > 0 {
            let b = left.min(TRACE_BATCH);
            left -= b;
            let t0 = Instant::now();
            for s in &mut samples[..b] {
                cell.model.sample_trial(rng, s);
            }
            let t1 = Instant::now();
            results.clear();
            results.extend(samples[..b].iter().map(|s| run_trial(cfg, s, &mut scratch)));
            let t2 = Instant::now();
            for res in &results {
                acc.thresholds.record(res.staleness_threshold);
                acc.read.record(res.read_latency);
                acc.write.record(res.write_latency);
                if res.staleness_threshold <= 0.0 {
                    acc.consistent_at_zero += 1;
                }
            }
            let t3 = Instant::now();
            acc.sample += t1 - t0;
            acc.trial += t2 - t1;
            acc.record += t3 - t2;
        }
        let t4 = Instant::now();
        acc.thresholds.seal();
        acc.read.seal();
        acc.write.seal();
        acc.record += t4.elapsed();
        acc
    })
}

/// Run the workload.
pub fn run(p: &Params, shape: &Shape) -> Outcome {
    let mut checks = Checks::default();
    // Every round sets up afresh, so the set-up times sample the host over
    // the whole run, as the rates do.
    let mut setup_times = Vec::new();
    let mut fit_times = Vec::new();
    let mut refit = None;

    // Untraced rounds give the end-to-end figures. In traced mode each is
    // followed by a traced round under the same seed, so both see the same
    // host conditions and the traced loop's outputs can be compared.
    let mut intervals = Vec::new();
    let mut traced = Vec::new();
    let (mut sample, mut trial, mut record) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut gauge = Gauge::default();
    let clock = Instant::now();
    while intervals.is_empty() || clock.elapsed().as_secs_f64() < p.seconds {
        let t = Instant::now();
        let (fitted, cells, fit) = setup();
        setup_times.push(t.elapsed().as_secs_f64());
        fit_times.push(fit.as_secs_f64());
        refit = Some(fitted);
        let round_items = (cells.len() * shape.trials) as u64;
        let seed = mix(p.seed, intervals.len() as u64);
        let sw = Stopwatch::start();
        let tvs: Vec<TVisibility> = cells
            .iter()
            .map(|c| TVisibility::simulate(c.model.as_ref(), shape.trials, seed))
            .collect();
        let (wall, cpu) = sw.stop();
        gauge.sample();
        intervals.push(Interval {
            items: round_items,
            wall,
            cpu,
        });
        check_round(&cells, &tvs, &mut checks);
        if !p.trace {
            continue;
        }
        let t = Instant::now();
        let shards: Vec<TracedShard> = cells
            .iter()
            .map(|c| traced_cell(c, shape.trials, seed))
            .collect();
        traced.push(Interval {
            items: round_items,
            wall: t.elapsed().as_secs_f64(),
            cpu: 0.0,
        });
        for ((cell, s), tv) in cells.iter().zip(&shards).zip(&tvs) {
            let (p0, r999) = (tv.prob_consistent(0.0), tv.read_latency_percentile(99.9));
            let t_p0 = s.consistent_at_zero as f64 / shape.trials as f64;
            let t_r999 = s.read.percentile(99.9);
            checks.expect(t_p0 == p0 && t_r999 == r999, || {
                format!(
                    "{} {}: traced loop gave P_c(0) {t_p0}, read p99.9 {t_r999}; \
                     TVisibility gave {p0}, {r999}",
                    cell.profile, cell.cfg
                )
            });
            sample += s.sample;
            trial += s.trial;
            record += s.record;
        }
    }
    let refit = refit.expect("at least one round");
    check_refit(&refit, shape.refit_samples, p.seed, &mut checks);
    let attempted: u64 = intervals.iter().chain(&traced).map(|i| i.items).sum();

    let metrics = if p.trace {
        let trials = traced.iter().map(|i| i.items).sum::<u64>() as f64;
        let per = |d: Duration| d.as_secs_f64() * 1e9 / trials;
        let untraced_ns = 1e9 / pooled_rates(&intervals).0;
        let traced_ns = 1e9 / pooled_rates(&traced).0;
        let layers = per(sample) + per(trial) + per(record);
        vec![
            metric("dist.fit_s", median(&fit_times), "s"),
            metric("wars.sample_ns_per_trial", per(sample), "ns"),
            metric("wars.trial_ns_per_trial", per(trial), "ns"),
            metric("mc.record_ns_per_trial", per(record), "ns"),
            metric("wars.residual_ns_per_trial", untraced_ns - layers, "ns"),
            metric(
                "trace.overhead_pct",
                (traced_ns - untraced_ns) / untraced_ns * 100.0,
                "%",
            ),
        ]
    } else {
        end_to_end(&intervals, &setup_times, &gauge)
    };
    Outcome {
        checks,
        attempted,
        failed: 0,
        metrics: with_rss(metrics, p.trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_matches_hand_values() {
        let cfg = |r, w| ReplicaConfig::new(3, r, w).unwrap();
        assert!((eq1_miss(cfg(1, 1)) - 2.0 / 3.0).abs() < 1e-12);
        assert!((eq1_miss(cfg(2, 1)) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(eq1_miss(cfg(2, 2)), 0.0);
    }
}
