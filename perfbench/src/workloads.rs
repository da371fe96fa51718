//! The benchmark's workloads: CLI-shaped batch solves and a serving
//! stream. Inputs are generated from the seed before any timing starts.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use mpc_clustering::cli::{parse_points_csv, points_to_csv, pointset_to_csv};
use mpc_clustering::core::Params;
use mpc_clustering::metric::{datasets, EuclideanSpace, PointId, PointSet};
use mpc_clustering::serving::{DiversityIndex, IndexParams};

use crate::check::Checks;
use crate::cpus;
use crate::report::{mean, median, Report};
use crate::serving::{self, Cycle, IndexShape};
use crate::solve::{self, Problem, Solved};

/// Batch set-ups made before every solve of an instance, the last of
/// which the solve uses. Set-up is short and the host's speed drifts
/// within a run, so many samples spread over the whole run give a
/// median that is steady from run to run.
const SETUP_REPS: usize = 12;

/// How one run is invoked.
pub struct RunConfig<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    /// The release `mpc-clustering` binary, for the CLI parity check.
    pub cli: &'a Path,
    /// Scratch directory for the CSV the binary reads.
    pub data_dir: &'a Path,
}

/// A batch workload: one CLI invocation per repetition.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    pub problem: Problem,
    pub n: usize,
    pub dim: usize,
    pub clusters: usize,
    pub sigma: f64,
    pub k: usize,
    pub m: usize,
    pub epsilon: f64,
}

/// The streaming workload.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    pub points: usize,
    pub dim: usize,
    pub clusters: usize,
    pub sigma: f64,
    pub drift: f64,
    /// Points loaded during set-up, before the timed loop.
    pub corpus: usize,
    /// Points inserted before each refresh-and-query cycle.
    pub burst: usize,
    /// Every how many cycles the answers are checked.
    pub check_every: usize,
    /// Corpus set-ups made before the stream and before every cycle, the
    /// first of which the stream uses.
    pub setup_reps: usize,
    pub shape: IndexShape,
}

/// A run's set-up times. The host's speed changes in phases of about a
/// second, longer than one set-up, so single set-up times fall into a
/// fast and a slow group, and a median over them jumps between the groups
/// from run to run. Each instance's set-ups are therefore averaged, and
/// the run reports the median over instances.
#[derive(Default)]
struct SetupTimes {
    /// The current instance's parse and build times.
    current: [Vec<f64>; 2],
    /// Mean parse and build time of each finished instance.
    means: [Vec<f64>; 2],
    samples: usize,
}

impl SetupTimes {
    fn push(&mut self, parse_s: f64, build_s: f64) {
        self.current[0].push(parse_s);
        self.current[1].push(build_s);
        self.samples += 1;
    }

    fn finish_instance(&mut self) {
        for (means, current) in self.means.iter_mut().zip(&mut self.current) {
            means.push(mean(current));
            current.clear();
        }
    }

    /// `setup_s`: median over instances of mean parse + mean build.
    fn report(&self, report: &mut Report) {
        let totals: Vec<f64> = self.means[0]
            .iter()
            .zip(&self.means[1])
            .map(|(p, b)| p + b)
            .collect();
        report.add_noted(
            "setup_s",
            median(&totals),
            "s",
            format!(
                "median over {} instances of their mean, {} set-ups",
                totals.len(),
                self.samples
            ),
        );
    }

    /// `cli.parse_s` and `metric.build_s`, each the median over instances.
    fn report_layers(&self, report: &mut Report) {
        report.add("cli.parse_s", median(&self.means[0]), "s");
        report.add("metric.build_s", median(&self.means[1]), "s");
    }
}

/// Parses the CSV text and builds the space `reps` times, as the binary
/// does once per invocation, recording each parse and build time;
/// returns the last space.
fn setup(csv: &str, reps: usize, times: &mut SetupTimes) -> EuclideanSpace {
    let mut space = None;
    for _ in 0..reps {
        cpus::rotate();
        let started = Instant::now();
        let points = parse_points_csv(csv).expect("generated CSV parses");
        let parse_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        space = Some(EuclideanSpace::new(points));
        times.push(parse_s, started.elapsed().as_secs_f64());
    }
    space.expect("at least one set-up repetition")
}

fn digest_check(expected: u64, got: u64, what: &str) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: digest {got:016x} differs from {expected:016x}"
        ))
    }
}

/// Runs the binary on the same CSV and flags and compares its rows with
/// the in-process answer.
fn cli_parity(
    spec: &BatchSpec,
    run: &RunConfig,
    seed: u64,
    csv: &str,
    points: &PointSet,
    ids: &[PointId],
) -> Result<(), String> {
    let path = run
        .data_dir
        .join(format!("{}-{seed}.csv", spec.problem.cli_command()));
    std::fs::create_dir_all(run.data_dir).map_err(|e| format!("create data dir: {e}"))?;
    std::fs::write(&path, csv).map_err(|e| format!("write {}: {e}", path.display()))?;
    let output = Command::new(run.cli)
        .arg(spec.problem.cli_command())
        .arg("--input")
        .arg(&path)
        .args(["--k", &spec.k.to_string()])
        .args(["--m", &spec.m.to_string()])
        .args(["--epsilon", &spec.epsilon.to_string()])
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", run.cli.display()));
    // The CSV is only the binary's input; do not leave it behind.
    let _ = std::fs::remove_file(&path);
    let output = output?;
    if !output.status.success() {
        return Err(format!(
            "binary exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let expected = points_to_csv(points, ids);
    if output.stdout != expected.as_bytes() {
        return Err("binary output rows differ from the in-process answer".into());
    }
    Ok(())
}

/// A measured run draws fresh input instances until `--seconds` have
/// passed, but never fewer than this: instances differ in cost, and
/// averaging over several keeps a run's figures steady across seeds.
const MIN_INSTANCES: usize = 2;

/// Seed of a run's `i`-th input instance (distinct for distinct pairs
/// while `i < 2^16`).
fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1 << 16).wrapping_add(i as u64)
}

fn round_trip(parsed: &PointSet, generated: &PointSet) -> Result<(), String> {
    if parsed.len() == generated.len()
        && parsed.dim() == generated.dim()
        && generated
            .ids()
            .all(|id| parsed.coords(id) == generated.coords(id))
    {
        Ok(())
    } else {
        Err("parsed points differ from the generated points".into())
    }
}

/// One batch input: its CSV text, parameters, a built space and the
/// sequential GMM reference.
struct BatchInstance {
    seed: u64,
    csv: String,
    params: Params,
    space: EuclideanSpace,
    reference: f64,
}

impl BatchInstance {
    fn new(spec: &BatchSpec, seed: u64, checks: &mut Checks, times: &mut SetupTimes) -> Self {
        let generated =
            datasets::gaussian_clusters(spec.n, spec.dim, spec.clusters, spec.sigma, seed);
        let csv = pointset_to_csv(&generated);
        let space = setup(&csv, SETUP_REPS, times);
        checks.record("CSV round trip", round_trip(space.points(), &generated));
        let reference = solve::gmm_reference(spec.problem, &space, spec.k);
        Self {
            seed,
            csv,
            params: Params::practical(spec.m, spec.epsilon, seed),
            space,
            reference,
        }
    }

    /// One CLI invocation's work at `threads` threads: parse and build
    /// (repeated, all added to the set-up samples) and the timed solve,
    /// then the checks.
    fn invoke(
        &self,
        spec: &BatchSpec,
        threads: usize,
        checks: &mut Checks,
        times: &mut SetupTimes,
    ) -> (Solved, f64, f64) {
        let space = setup(&self.csv, SETUP_REPS, times);
        cpus::rotate();
        let out = solve::timed(|| {
            rayon::with_threads(threads, || {
                solve::solve(spec.problem, &space, spec.k, &self.params)
            })
        });
        checks.record(
            "answer",
            solve::check_solved(
                spec.problem,
                &space,
                spec.k,
                spec.epsilon,
                &out.0,
                self.reference,
            ),
        );
        out
    }
}

/// A batch workload. Measured: input instances one after another until
/// the time is up, each solved once at `nproc` threads and once at one
/// thread, each solve one CLI invocation's parse + build + solve. Traced:
/// one instance, solved at each thread count with CPU time, then the
/// traced attribution on the same points.
pub fn run_batch(spec: &BatchSpec, run: &RunConfig, checks: &mut Checks, report: &mut Report) {
    let mut setup_s = SetupTimes::default();
    let mut solve_s: [Vec<f64>; 2] = Default::default();
    let (mut ratios, mut rounds, mut words) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    for i in 0.. {
        if i >= MIN_INSTANCES && started.elapsed().as_secs_f64() >= run.seconds {
            break;
        }
        let inst = BatchInstance::new(spec, instance_seed(run.seed, i), checks, &mut setup_s);
        let (main, main_s, main_cpu) = inst.invoke(spec, run.nproc, checks, &mut setup_s);
        if i == 0 {
            checks.record(
                "CLI parity",
                cli_parity(
                    spec,
                    run,
                    inst.seed,
                    &inst.csv,
                    inst.space.points(),
                    &main.ids,
                ),
            );
        }
        let (one, one_s, one_cpu) = inst.invoke(spec, 1, checks, &mut setup_s);
        setup_s.finish_instance();
        checks.record(
            "digest across thread counts",
            digest_check(main.digest(), one.digest(), &format!("instance {i} at t=1")),
        );
        solve_s[0].push(main_s);
        solve_s[1].push(one_s);
        ratios.push(solve::approx_ratio(
            spec.problem,
            main.value,
            inst.reference,
        ));
        rounds.push(main.telemetry.rounds as f64);
        words.push(main.telemetry.max_machine_words as f64);

        if run.trace {
            setup_s.report_layers(report);
            report.add("pool.cpu_s", main_cpu, "s");
            report.add("pool.cpu_per_wall", main_cpu / main_s, "ratio");
            report.add("pool.cpu_s_1t", one_cpu, "s");
            report.add("pool.cpu_per_wall_1t", one_cpu / one_s, "ratio");
            solve::trace_solve(
                spec.problem,
                &inst.space,
                spec.k,
                &inst.params,
                &one,
                one_s,
                checks,
                report,
            );
            break;
        }
    }

    let n = solve_s[0].len();
    setup_s.report(report);
    report.add_noted(
        "solve_s",
        mean(&solve_s[0]),
        "s",
        format!("mean over {n} instances at t={}", run.nproc),
    );
    report.add_noted(
        "solve_1t_s",
        mean(&solve_s[1]),
        "s",
        format!("mean over {n} instances at t=1"),
    );
    report.add_noted(
        "approx_ratio",
        median(&ratios),
        "ratio",
        format!("median over {n} instances vs sequential GMM"),
    );
    report.add_noted(
        "rounds",
        median(&rounds),
        "count",
        format!("median over {n} instances"),
    );
    report.add_noted(
        "max_machine_words",
        median(&words),
        "words",
        format!("median over {n} instances"),
    );
}

/// The streaming workload's shape.
pub const STREAM: StreamSpec = StreamSpec {
    points: 50_000,
    dim: 16,
    clusters: 16,
    sigma: 0.03,
    drift: 1e-3,
    corpus: 10_000,
    burst: 8_000,
    check_every: 4,
    setup_reps: 6,
    shape: IndexShape {
        shards: 16,
        coreset_k: 32,
        k_max: 16,
        epsilon: 0.1,
    },
};

/// Cycles and timings accumulated over a run's streams.
#[derive(Default)]
struct StreamTally {
    setup_s: SetupTimes,
    /// Cycles at `nproc` threads (slot 0) and at one thread (slot 1).
    cycles: [Vec<Cycle>; 2],
    cpu_s: [f64; 2],
    inserted: usize,
    insert_s: f64,
    rebuilds: u64,
    ratios: Vec<f64>,
}

/// Parses the corpus CSV text and loads it into a fresh index `reps`
/// times, recording each parse and load time; returns the first index.
fn load_corpus(
    csv: &str,
    dim: usize,
    params: &IndexParams,
    reps: usize,
    times: &mut SetupTimes,
) -> DiversityIndex {
    let mut first = None;
    for _ in 0..reps {
        cpus::rotate();
        let started = Instant::now();
        let parsed = parse_points_csv(csv).expect("generated CSV parses");
        let parse_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let mut index = DiversityIndex::new(dim, params.clone());
        for id in parsed.ids() {
            index.insert(parsed.coords(id));
        }
        times.push(parse_s, started.elapsed().as_secs_f64());
        first.get_or_insert(index);
    }
    first.expect("at least one set-up repetition")
}

/// One stream: set-up loads the corpus from CSV text into a fresh index
/// (repeated before the stream and before every cycle, each repetition a
/// set-up sample); then insert bursts alternate with refresh-and-query
/// cycles on alternating thread counts until the stream is spent. Every
/// `check_every`-th cycle is checked against all inserted points and
/// repeated on a fresh snapshot at the other thread count, which must give
/// identical answers.
fn run_one_stream(
    spec: &StreamSpec,
    run: &RunConfig,
    seed: u64,
    checks: &mut Checks,
    tally: &mut StreamTally,
) {
    let stream = datasets::user_embeddings(
        spec.points,
        spec.dim,
        spec.clusters,
        spec.sigma,
        spec.drift,
        seed,
    );
    let prefix = |end: usize| PointSet::new(stream.raw()[..end * spec.dim].to_vec(), spec.dim);
    let corpus = prefix(spec.corpus);
    let corpus_csv = pointset_to_csv(&corpus);
    let params = spec.shape.params(seed);

    let mut index = load_corpus(
        &corpus_csv,
        spec.dim,
        &params,
        spec.setup_reps,
        &mut tally.setup_s,
    );
    checks.record(
        "CSV round trip",
        round_trip(index.space().points(), &corpus),
    );
    let rebuilds_before = index.stats().rebuilds;

    let mut pos = spec.corpus;
    let mut cycle_in_stream = 0usize;
    while pos < spec.points {
        let end = (pos + spec.burst).min(spec.points);
        let t = Instant::now();
        for i in pos..end {
            index.insert(stream.coords(PointId(i as u32)));
        }
        tally.insert_s += t.elapsed().as_secs_f64();
        tally.inserted += end - pos;
        pos = end;
        load_corpus(
            &corpus_csv,
            spec.dim,
            &params,
            spec.setup_reps,
            &mut tally.setup_s,
        );

        let slot = (tally.cycles[0].len() + tally.cycles[1].len()) % 2;
        let threads = [run.nproc, 1][slot];
        let (c, _, cpu) = solve::timed(|| {
            rayon::with_threads(threads, || serving::cycle(&mut index, spec.shape.k_max))
        });
        tally.cpu_s[slot] += cpu;
        if cycle_in_stream.is_multiple_of(spec.check_every) {
            let all = EuclideanSpace::new(prefix(pos));
            tally
                .ratios
                .extend(serving::check_cycle(&all, &spec.shape, &c, checks));
            let other = [1, run.nproc][slot];
            let again = rayon::with_threads(other, || serving::cycle(&mut index, spec.shape.k_max));
            checks.record(
                "digest across snapshots and thread counts",
                digest_check(
                    c.digest(),
                    again.digest(),
                    &format!("cycle {cycle_in_stream} at t={other}"),
                ),
            );
        }
        tally.cycles[slot].push(c);
        cycle_in_stream += 1;
    }
    tally.rebuilds += index.stats().rebuilds - rebuilds_before;
    tally.setup_s.finish_instance();
}

/// The serving workload. Measured: streams with fresh inputs one after
/// another until the time is up. Traced: one stream. The served queries
/// run inside the index on its own space, so the traced run attributes
/// only the layers the stream reaches from outside: set-up, the pool and
/// the serving layer.
pub fn run_stream(spec: &StreamSpec, run: &RunConfig, checks: &mut Checks, report: &mut Report) {
    let mut tally = StreamTally::default();
    let started = Instant::now();
    for i in 0.. {
        let enough = if run.trace {
            i >= 1
        } else {
            i >= MIN_INSTANCES && started.elapsed().as_secs_f64() >= run.seconds
        };
        if enough {
            break;
        }
        run_one_stream(spec, run, instance_seed(run.seed, i), checks, &mut tally);
    }

    let main: Vec<&Cycle> = tally.cycles[0].iter().collect();
    serving::serving_metrics(
        &main,
        tally.inserted,
        tally.insert_s,
        tally.rebuilds,
        report,
    );
    let cycle_s =
        |slot: usize| -> Vec<f64> { tally.cycles[slot].iter().map(|c| c.total_s).collect() };
    tally.setup_s.report(report);
    report.add_noted(
        "solve_s",
        mean(&cycle_s(0)),
        "s",
        format!(
            "mean refresh-and-query cycle of {} at t={}",
            main.len(),
            run.nproc
        ),
    );
    report.add_noted(
        "solve_1t_s",
        mean(&cycle_s(1)),
        "s",
        format!(
            "mean refresh-and-query cycle of {} at t=1",
            tally.cycles[1].len()
        ),
    );
    report.add_noted(
        "approx_ratio",
        median(&tally.ratios),
        "ratio",
        format!(
            "median of {} checked answers vs sequential GMM",
            tally.ratios.len()
        ),
    );

    if run.trace {
        tally.setup_s.report_layers(report);
        let wall = |slot: usize| cycle_s(slot).iter().sum::<f64>();
        report.add("pool.cpu_s", tally.cpu_s[0], "s");
        report.add("pool.cpu_per_wall", tally.cpu_s[0] / wall(0), "ratio");
        report.add("pool.cpu_s_1t", tally.cpu_s[1], "s");
        report.add("pool.cpu_per_wall_1t", tally.cpu_s[1] / wall(1), "ratio");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_cycle_checks_pass_on_a_small_stream() {
        let spec = StreamSpec {
            points: 3_000,
            corpus: 1_000,
            burst: 500,
            check_every: 2,
            ..STREAM
        };
        let run = RunConfig {
            seed: 3,
            seconds: 0.0,
            trace: false,
            nproc: 2,
            cli: Path::new("unused"),
            data_dir: Path::new("unused"),
        };
        let (mut checks, mut report) = (Checks::default(), Report::default());
        run_stream(&spec, &run, &mut checks, &mut report);
        assert_eq!(checks.failed, 0, "{:?}", checks.messages);
        assert!(checks.attempted > 2 * 15);
        for name in ["setup_s", "solve_s", "solve_1t_s", "approx_ratio"] {
            assert!(report.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }
}
