//! The serving layer, driven as a `DiversityIndex` user drives it: insert
//! bursts alternating with one snapshot and a cold k-center plus
//! k-diversity query for every k in `2..=k_max`.

use std::time::Instant;

use mpc_clustering::core::gmm::gmm;
use mpc_clustering::metric::EuclideanSpace;
use mpc_clustering::serving::{DiversityIndex, IndexParams, ServedDiversity, ServedKCenter};

use crate::check::{self, Checks, Digest};
use crate::cpus;
use crate::report::{median, tail_percentile, Report};

/// Shape of a serving index and of the queries made on it.
#[derive(Debug, Clone, Copy)]
pub struct IndexShape {
    pub shards: usize,
    pub coreset_k: usize,
    pub k_max: usize,
    pub epsilon: f64,
}

impl IndexShape {
    pub fn params(&self, seed: u64) -> IndexParams {
        let mut p = IndexParams::new(self.shards, self.coreset_k, seed);
        p.epsilon = self.epsilon;
        p
    }
}

/// Every answer of one refresh-and-query cycle, with its timings.
pub struct Cycle {
    pub kcenter: Vec<ServedKCenter>,
    pub diversity: Vec<ServedDiversity>,
    pub snapshot_s: f64,
    pub kcenter_s: Vec<f64>,
    pub kdiversity_s: Vec<f64>,
    pub total_s: f64,
    pub union_size: usize,
    pub delta: f64,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

impl Cycle {
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for a in &self.kcenter {
            d = d.ids(&a.centers).word(a.radius.to_bits());
        }
        for a in &self.diversity {
            d = d.ids(&a.subset).word(a.diversity.to_bits());
        }
        d.value()
    }

    pub fn query_s(&self) -> impl Iterator<Item = f64> + '_ {
        self.kcenter_s.iter().chain(&self.kdiversity_s).copied()
    }
}

/// One `snapshot()` followed by a cold `kcenter(k)` and `kdiversity(k)`
/// for every k in `2..=k_max`, on the calling thread's pool setting. The
/// queries run mostly on the calling thread, which moves to the next CPU
/// before each of them.
pub fn cycle(index: &mut DiversityIndex, k_max: usize) -> Cycle {
    cpus::rotate();
    let started = Instant::now();
    let mut snap = index.snapshot();
    let snapshot_s = started.elapsed().as_secs_f64();
    let (mut kcenter, mut diversity) = (Vec::new(), Vec::new());
    let (mut kcenter_s, mut kdiversity_s) = (Vec::new(), Vec::new());
    for k in 2..=k_max {
        cpus::rotate();
        let t = Instant::now();
        kcenter.push(snap.kcenter(k));
        kcenter_s.push(t.elapsed().as_secs_f64());
        cpus::rotate();
        let t = Instant::now();
        diversity.push(snap.kdiversity(k));
        kdiversity_s.push(t.elapsed().as_secs_f64());
    }
    let total_s = started.elapsed().as_secs_f64();
    let memo = snap.memo_stats();
    Cycle {
        kcenter,
        diversity,
        snapshot_s,
        kcenter_s,
        kdiversity_s,
        total_s,
        union_size: snap.union().len(),
        delta: snap.delta(),
        memo_hits: memo.hits,
        memo_misses: memo.misses,
    }
}

/// Checks a cycle's answers against every point inserted so far (`all`,
/// the benchmark's own copy of the inserted coordinates) and returns the
/// approximation ratios against sequential GMM on `all`.
pub fn check_cycle(
    all: &EuclideanSpace,
    shape: &IndexShape,
    c: &Cycle,
    checks: &mut Checks,
) -> Vec<f64> {
    let ids: Vec<u32> = (0..all.points().len() as u32).collect();
    let reference = gmm(all, &ids, shape.k_max);
    // GMM is a prefix process: its first k picks are GMM with k, whose
    // covering radius is the next pick's radius and whose diversity is
    // the k-th pick's radius.
    let r_gmm = |k: usize| {
        if k < shape.k_max {
            reference.radii[k]
        } else {
            reference.covering_radius()
        }
    };
    let div_gmm = |k: usize| reference.radii[k - 1];
    let mut ratios = Vec::new();
    for (i, a) in c.kcenter.iter().enumerate() {
        let k = i + 2;
        checks.record(
            "served k-center",
            check::served_kcenter(
                all,
                k,
                shape.epsilon,
                &a.centers,
                a.radius,
                a.delta,
                r_gmm(k),
            ),
        );
        ratios.push(a.radius / r_gmm(k));
    }
    for (i, a) in c.diversity.iter().enumerate() {
        let k = i + 2;
        checks.record(
            "served k-diversity",
            check::served_diversity(
                all,
                k,
                shape.epsilon,
                &a.subset,
                a.diversity,
                a.delta,
                div_gmm(k),
            ),
        );
        ratios.push(div_gmm(k) / a.diversity);
    }
    ratios
}

/// Serving-layer metrics over `cycles`, plus insert throughput.
pub fn serving_metrics(
    cycles: &[&Cycle],
    inserted: usize,
    insert_s: f64,
    rebuilds: u64,
    report: &mut Report,
) {
    let last = cycles.last().expect("at least one cycle");
    report.add_noted(
        "serving.insert_per_s",
        inserted as f64 / insert_s,
        "points/s",
        format!("{inserted} inserts"),
    );
    let refresh: Vec<f64> = cycles.iter().map(|c| c.snapshot_s).collect();
    report.add_noted(
        "serving.refresh_ms",
        1e3 * refresh.iter().sum::<f64>() / refresh.len() as f64,
        "ms",
        format!("mean of {} snapshots", refresh.len()),
    );
    report.add("serving.rebuilds", rebuilds as f64, "count");
    report.add("serving.union_size", last.union_size as f64, "points");
    report.add("serving.delta", last.delta, "distance");
    let kc: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.kcenter_s.iter().copied())
        .collect();
    let kd: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.kdiversity_s.iter().copied())
        .collect();
    report.add("serving.kcenter_ms", 1e3 * median(&kc), "ms");
    report.add("serving.kdiversity_ms", 1e3 * median(&kd), "ms");
    let all: Vec<f64> = cycles.iter().flat_map(|c| c.query_s()).collect();
    report.add_noted(
        "serving.query_ms_p50",
        1e3 * median(&all),
        "ms",
        format!("{} queries", all.len()),
    );
    let (q, tail) = tail_percentile(&all, 0.95);
    report.add_noted(
        "serving.query_ms_p95",
        1e3 * tail,
        "ms",
        format!("p{:.1} of {} queries", 100.0 * q, all.len()),
    );
    let hits: u64 = cycles.iter().map(|c| c.memo_hits).sum();
    let lookups: u64 = cycles.iter().map(|c| c.memo_hits + c.memo_misses).sum();
    report.add(
        "serving.memo_hit_frac",
        hits as f64 / lookups.max(1) as f64,
        "fraction",
    );
}
