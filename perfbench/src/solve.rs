//! The two batch problems, solved exactly as the `mpc-clustering` binary
//! solves them, plus the traced variant that attributes a solve's time and
//! work to layers from outside the program.

use std::time::Instant;

use mpc_clustering::core::common::{covering_radius, gmm_coreset};
use mpc_clustering::core::degree::approximate_degrees;
use mpc_clustering::core::diversity::{
    mpc_diversity, mpc_diversity_on, sequential_gmm_diversity, DiversityResult,
};
use mpc_clustering::core::kbmis::k_bounded_mis;
use mpc_clustering::core::kcenter::{
    mpc_kcenter, mpc_kcenter_on, sequential_gmm_kcenter, KCenterResult,
};
use mpc_clustering::core::{Params, Telemetry};
use mpc_clustering::metric::{EuclideanSpace, MetricSpace, PointId, SpeedTier};
use mpc_clustering::sim::{Cluster, Ledger};

use crate::check::{self, Checks, Digest};
use crate::report::Report;
use crate::traced::TracedSpace;

/// Which paper algorithm a batch workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    /// Algorithm 5, as `mpc-clustering kcenter` runs it.
    KCenter,
    /// Algorithm 2, as `mpc-clustering diversity` runs it.
    Diversity,
}

impl Problem {
    pub fn cli_command(self) -> &'static str {
        match self {
            Problem::KCenter => "kcenter",
            Problem::Diversity => "diversity",
        }
    }
}

/// One solve's answer and the program's own accounting of it.
#[derive(Debug, Clone)]
pub struct Solved {
    pub ids: Vec<PointId>,
    /// Radius (k-center) or diversity.
    pub value: f64,
    pub coarse_r: f64,
    pub boundary: usize,
    pub telemetry: Telemetry,
}

impl Solved {
    /// Digest of the answer and its round/word accounting.
    pub fn digest(&self) -> u64 {
        Digest::default()
            .ids(&self.ids)
            .word(self.value.to_bits())
            .word(self.telemetry.rounds)
            .word(self.telemetry.max_machine_words)
            .word(self.telemetry.total_words)
            .value()
    }

    /// The ladder threshold at which the returned answer was found:
    /// Algorithm 5 descends `τ_i = r/(1+ε)^i`, Algorithm 2 ascends
    /// `τ_i = r(1+ε)^i`.
    pub fn boundary_tau(&self, problem: Problem, epsilon: f64) -> f64 {
        let step = (1.0 + epsilon).powi(self.boundary as i32);
        match problem {
            Problem::KCenter => self.coarse_r / step,
            Problem::Diversity => self.coarse_r * step,
        }
    }
}

impl From<KCenterResult> for Solved {
    fn from(r: KCenterResult) -> Self {
        Solved {
            ids: r.centers,
            value: r.radius,
            coarse_r: r.coarse_r,
            boundary: r.boundary_index,
            telemetry: r.telemetry,
        }
    }
}

impl From<DiversityResult> for Solved {
    fn from(r: DiversityResult) -> Self {
        Solved {
            ids: r.subset,
            value: r.diversity,
            coarse_r: r.coarse_r,
            boundary: r.boundary_index,
            telemetry: r.telemetry,
        }
    }
}

/// The solve the binary runs: `mpc_kcenter` / `mpc_diversity` on a fresh
/// cluster built from `params`.
pub fn solve<M: MetricSpace + ?Sized>(
    problem: Problem,
    metric: &M,
    k: usize,
    params: &Params,
) -> Solved {
    match problem {
        Problem::KCenter => mpc_kcenter(metric, k, params).into(),
        Problem::Diversity => mpc_diversity(metric, k, params).into(),
    }
}

/// The same solve on a caller-owned cluster, so the caller keeps the
/// round-by-round ledger.
pub fn solve_on<M: MetricSpace + ?Sized>(
    problem: Problem,
    cluster: &mut Cluster,
    metric: &M,
    k: usize,
    params: &Params,
) -> Solved {
    match problem {
        Problem::KCenter => mpc_kcenter_on(cluster, metric, k, params).into(),
        Problem::Diversity => mpc_diversity_on(cluster, metric, k, params).into(),
    }
}

/// Sequential GMM reference value: its radius (k-center) or diversity.
pub fn gmm_reference<M: MetricSpace + ?Sized>(problem: Problem, metric: &M, k: usize) -> f64 {
    match problem {
        Problem::KCenter => sequential_gmm_kcenter(metric, k).radius,
        Problem::Diversity => sequential_gmm_diversity(metric, k).diversity,
    }
}

/// Checks one answer against the input and the GMM reference.
pub fn check_solved<M: MetricSpace + ?Sized>(
    problem: Problem,
    metric: &M,
    k: usize,
    epsilon: f64,
    solved: &Solved,
    reference: f64,
) -> Result<(), String> {
    match problem {
        Problem::KCenter => {
            check::kcenter(metric, k, epsilon, &solved.ids, solved.value, reference)
        }
        Problem::Diversity => {
            check::diversity(metric, k, epsilon, &solved.ids, solved.value, reference)
        }
    }
}

/// Quality against the GMM reference, oriented so that lower is better:
/// radius / r_GMM for k-center, div_GMM / diversity for diversity.
pub fn approx_ratio(problem: Problem, value: f64, reference: f64) -> f64 {
    match problem {
        Problem::KCenter => value / reference,
        Problem::Diversity => reference / value,
    }
}

/// Label prefixes the ledger's collectives are folded into.
pub const LEDGER_PREFIXES: [&str; 6] = ["coreset", "radius", "deg", "mis", "nearest", "other"];

/// Rounds and words per label prefix, plus the ledger-wide figures.
pub fn ledger_metrics(ledger: &Ledger, report: &mut Report) {
    let mut rounds = [0u64; LEDGER_PREFIXES.len()];
    let mut words = [0u64; LEDGER_PREFIXES.len()];
    for (label, r, w) in ledger.summary_by_label() {
        let prefix = label.split('/').next().unwrap_or("");
        let slot = LEDGER_PREFIXES[..5]
            .iter()
            .position(|p| *p == prefix)
            .unwrap_or(5);
        rounds[slot] += r;
        words[slot] += w;
    }
    report.add("sim.rounds", ledger.rounds() as f64, "count");
    report.add(
        "sim.max_machine_words",
        ledger.max_machine_words() as f64,
        "words",
    );
    for (i, p) in LEDGER_PREFIXES.iter().enumerate() {
        report.add(format!("sim.rounds.{p}"), rounds[i] as f64, "count");
        report.add(format!("sim.words.{p}"), words[i] as f64, "words");
    }
    report.add(
        "sim.max_words_per_round",
        ledger.max_machine_words_per_round() as f64,
        "words",
    );
    report.add("sim.violations", ledger.violations().len() as f64, "count");
}

/// Wall-clock seconds and process CPU seconds of one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = crate::report::process_cpu_s();
    let started = Instant::now();
    let out = f();
    let wall = started.elapsed().as_secs_f64();
    (out, wall, crate::report::process_cpu_s() - cpu0)
}

/// The traced attribution of one solve, all at one thread so busy times
/// add up to wall-clock: given the untraced solve `plain` (taking
/// `plain_s` seconds at one thread), the same solve through
/// [`TracedSpace`] on a caller-owned cluster, the same solve at the
/// `soa+sketch` speed tier, and direct calls into Algorithms 1, 3 and 4
/// at the traced solve's boundary threshold on a fresh cluster. Adds the
/// `metric.*`, `memo.*` (where the driver exports them), `core.*`,
/// `ladder.*`, `kbmis.*`, `degree.*`, `gmm.*`, `sim.*` and `trace.*`
/// metrics and records the neutrality checks (traced answer and
/// `soa+sketch` answer == untraced answer).
#[allow(clippy::too_many_arguments)]
pub fn trace_solve(
    problem: Problem,
    metric: &EuclideanSpace,
    k: usize,
    params: &Params,
    plain: &Solved,
    plain_s: f64,
    checks: &mut Checks,
    report: &mut Report,
) {
    let traced_space = TracedSpace::new(metric);
    let mut cluster = Cluster::new(params.m, params.seed);
    let (traced, traced_s, _) = timed(|| {
        rayon::with_threads(1, || {
            solve_on(problem, &mut cluster, &traced_space, k, params)
        })
    });
    checks.record(
        "traced solve equals untraced solve",
        if traced.digest() == plain.digest() {
            Ok(())
        } else {
            Err("tracing changed the answer or its accounting".into())
        },
    );
    let t = traced_space.trace();
    let dim_words = metric.point_weight() as f64;
    let busy_s = t.busy_s();
    report.add("metric.busy_s", busy_s, "s");
    for (name, fam) in [
        ("dist", t.dist),
        ("threshold", t.threshold),
        ("taus", t.taus),
    ] {
        report.add(format!("metric.{name}_calls"), fam.calls as f64, "count");
        report.add(format!("metric.{name}_pairs"), fam.pairs as f64, "pairs");
        // A share rather than seconds: families the pipeline never calls
        // read 0 and are not times.
        report.add(
            format!("metric.{name}_share"),
            fam.busy_s / busy_s,
            "fraction",
        );
    }
    report.add("metric.scalar_calls", t.scalar_calls as f64, "count");
    let pairs = t.pairs().max(1) as f64;
    report.add("metric.ns_per_pair", busy_s * 1e9 / pairs, "ns");
    report.add(
        "metric.bytes_computed",
        t.pairs() as f64 * dim_words * 8.0,
        "bytes",
    );
    fastpath_metrics(
        problem,
        metric,
        k,
        params,
        plain,
        t.threshold.pairs + t.taus.pairs,
        checks,
        report,
    );

    match traced.telemetry.memo {
        Some(memo) => {
            report.add("memo.hits", memo.hits as f64, "count");
            report.add("memo.misses", memo.misses as f64, "count");
            let lookups = (memo.hits + memo.misses).max(1) as f64;
            report.add("memo.hit_frac", memo.hits as f64 / lookups, "fraction");
            report.add("memo.flushes", memo.flushes as f64, "count");
            report.add("memo.stored_words", memo.stored_words as f64, "words");
        }
        None => println!(
            "# memo.* not measured: the {} driver does not export Telemetry.memo",
            problem.cli_command()
        ),
    }

    let phases = traced.telemetry.phases;
    report.add("core.coarse_s", phases.coarse_s, "s");
    report.add("core.ladder_s", phases.ladder_s, "s");
    report.add("core.finalize_s", phases.finalize_s, "s");
    report.add("core.nonmetric_s", traced_s - busy_s, "s");
    report.add(
        "ladder.evals",
        traced.telemetry.ladder_evals as f64,
        "count",
    );
    report.add(
        "ladder.probes",
        traced.telemetry.ladder_probes as f64,
        "count",
    );
    ledger_metrics(cluster.ledger(), report);
    report.add_noted(
        "trace.overhead",
        traced_s / plain_s,
        "ratio",
        format!("traced {traced_s:.3} s / untraced {plain_s:.3} s at 1 thread"),
    );
    report.add_noted(
        "trace.metric_busy_frac",
        busy_s / traced_s,
        "fraction",
        "metric-layer busy time / traced solve wall-clock".into(),
    );

    layer_calls(
        problem,
        metric,
        k,
        params,
        traced.boundary_tau(problem, params.epsilon),
        report,
    );
}

/// The fast-path kernel counters of `plain`'s solve, repeated at one
/// thread on a copy of the space at the `soa+sketch` speed tier. The
/// benchmark pins the default `exact` tier, at which the kernels are never
/// tried, so their counters would read 0 by construction; at `soa+sketch`
/// they show whether the pipeline reaches the kernels. Tiers must not
/// change the answer, which is checked. `tau_pairs` are the traced
/// solve's threshold and multi-threshold pairs, the fast path's possible
/// work.
#[allow(clippy::too_many_arguments)]
fn fastpath_metrics(
    problem: Problem,
    metric: &EuclideanSpace,
    k: usize,
    params: &Params,
    plain: &Solved,
    tau_pairs: u64,
    checks: &mut Checks,
    report: &mut Report,
) {
    let fast = EuclideanSpace::new(metric.points().clone()).with_speed_tier(SpeedTier::SoaSketch);
    let solved = rayon::with_threads(1, || solve(problem, &fast, k, params));
    checks.record(
        "soa+sketch solve equals exact solve",
        if solved.digest() == plain.digest() {
            Ok(())
        } else {
            Err("the soa+sketch tier changed the answer or its accounting".into())
        },
    );
    let kernels = fast.kernel_stats().unwrap_or_default();
    let at = |what: &str| format!("at the soa+sketch tier{what}");
    report.add_noted(
        "metric.fastpath_pairs",
        kernels.classified_pairs() as f64,
        "pairs",
        at(""),
    );
    report.add_noted(
        "metric.fastpath_frac",
        (kernels.classified_pairs() + kernels.sketch_rejects) as f64 / tau_pairs.max(1) as f64,
        "fraction",
        at(": classified + sketch-rejected / threshold + multi-threshold pairs"),
    );
    report.add_noted(
        "metric.exact_fallbacks",
        kernels.exact_fallbacks as f64,
        "pairs",
        at(""),
    );
    report.add_noted(
        "metric.sketch_rejects",
        kernels.sketch_rejects as f64,
        "pairs",
        at(""),
    );
}

/// Direct calls into Algorithms 1, 3 and 4 at threshold `tau` on a fresh
/// cluster, each timed at one thread.
fn layer_calls<M: MetricSpace + ?Sized>(
    problem: Problem,
    metric: &M,
    k: usize,
    params: &Params,
    tau: f64,
    report: &mut Report,
) {
    let n = metric.n();
    let local_sets = params
        .partition
        .build(n, params.m, params.seed)
        .all_items()
        .to_vec();
    // Algorithm 5 looks for a (k+1)-bounded MIS, Algorithm 2 for k.
    let mis_k = match problem {
        Problem::KCenter => k + 1,
        Problem::Diversity => k,
    };
    rayon::with_threads(1, || {
        let mut cluster = Cluster::new(params.m, params.seed);
        let (mis, mis_s, _) = timed(|| {
            k_bounded_mis(
                &mut cluster,
                metric,
                &local_sets,
                tau,
                mis_k,
                n,
                params,
                false,
            )
        });
        report.add("kbmis.call_s", mis_s, "s");
        report.add("kbmis.outer_rounds", mis.outer_rounds as f64, "count");
        report.add("kbmis.forced_progress", mis.forced_progress as f64, "count");

        let mut cluster = Cluster::new(params.m, params.seed);
        let (_, deg_s, _) =
            timed(|| approximate_degrees(&mut cluster, metric, &local_sets, tau, mis_k, n, params));
        report.add("degree.call_s", deg_s, "s");

        let mut cluster = Cluster::new(params.m, params.seed);
        let ((q, _), coreset_s, _) = timed(|| gmm_coreset(&mut cluster, metric, &local_sets, k));
        report.add("gmm.coreset_s", coreset_s, "s");
        let (_, radius_s, _) = timed(|| covering_radius(&mut cluster, metric, &local_sets, &q));
        report.add("gmm.radius_s", radius_s, "s");
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_clustering::metric::{datasets, EuclideanSpace};

    /// A wrapped solve must give the same centers, value and ledger as an
    /// unwrapped one: the wrapper may observe, never steer.
    #[test]
    fn traced_solve_is_neutral() {
        for (problem, dim) in [(Problem::KCenter, 8), (Problem::Diversity, 3)] {
            let metric = EuclideanSpace::new(datasets::gaussian_clusters(600, dim, 6, 0.02, 9));
            let params = Params::practical(4, 0.1, 9);
            for threads in [1, 2] {
                rayon::with_threads(threads, || {
                    let mut plain_cluster = Cluster::new(4, 9);
                    let plain = solve_on(problem, &mut plain_cluster, &metric, 6, &params);
                    let traced_space = TracedSpace::new(&metric);
                    let mut traced_cluster = Cluster::new(4, 9);
                    let traced = solve_on(problem, &mut traced_cluster, &traced_space, 6, &params);
                    assert_eq!(plain.ids, traced.ids);
                    assert_eq!(plain.value.to_bits(), traced.value.to_bits());
                    plain_cluster
                        .ledger()
                        .assert_identical(traced_cluster.ledger(), "traced vs plain");
                    assert!(traced_space.trace().pairs() > 0);
                });
            }
        }
    }
}
