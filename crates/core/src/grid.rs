//! The grid k-center engine — a second Euclidean evaluation engine for
//! Algorithm 5's τ-ladder that answers each rung with spatial hashing
//! instead of all-pairs threshold kernels.
//!
//! The all-pairs engine ([`crate::kcenter`]) evaluates a rung by running
//! the Algorithm 3/4 machinery, whose dominant cost is the degree
//! approximation: every alive point is scanned against an `n/m`-point
//! sample, `Θ(n²/m)` pairs per round, and the sample itself costs
//! `Θ(n/m)` words of all-to-all traffic per machine. The grid engine
//! replaces both: each machine buckets its local points into a
//! [`GridIndex`] with cell side `τ`, so domination queries touch only the
//! ≤ `3^d` stencil-adjacent cells — near-linear local work in `n` for
//! constant dimension — and the only traffic is candidate centers,
//! `O(mk)` points per round. This is the "fully scalable" regime of the
//! follow-up line (Coy–Czumaj–Mishra; Czumaj–Gao–Ghaffari–Jiang,
//! arXiv:2504.16382): per-machine communication independent of `n`.
//!
//! ## The rung protocol
//!
//! A rung asks for a (k+1)-bounded maximal independent set of the
//! threshold graph `G_τ`. The grid engine computes a **true** bounded MIS
//! (same acceptance semantics and approximation factor as Algorithm 4's,
//! different tie-breaking) by iterating:
//!
//! 1. every machine proposes a greedy independent set of its undominated
//!    local points (id order, tentative τ-ball marking via its grid), at
//!    most `k + 1 − |C|` proposals each;
//! 2. proposals are gathered; the coordinator extends `C` greedily in
//!    global id order, keeping candidates pairwise > τ apart;
//! 3. accepted centers are broadcast; machines mark their τ-balls
//!    dominated via stencil scans.
//!
//! The smallest-id candidate of every round is independent of `C` (its
//! machine checked domination before proposing), so each iteration grows
//! `C` or terminates: ≤ k + 2 iterations, 2 rounds each. Accepted rungs
//! are genuinely maximal — every point is within τ of a center — which is
//! exactly the invariant Algorithm 5's `2(1+ε)` guarantee needs; rejected
//! rungs expose k + 1 points pairwise > τ, the same pigeonhole
//! certificate. Tentative marks from unaccepted proposals are discarded
//! each iteration (an unaccepted candidate is only known to be within τ
//! of a *center*, not its markees), so maximality never leaks.
//!
//! Engine selection is explicit ([`KCenterEngine`]) with an environment
//! override: `KCENTER_ENGINE=allpairs|grid|auto`, where `auto` picks the
//! grid for Euclidean inputs of dimension ≤ [`KCenterEngine::GRID_MAX_DIM`]
//! (the 3^d stencil is the budget) and all-pairs otherwise. The default
//! stays all-pairs so existing digests are unchanged.

use std::sync::OnceLock;
use std::time::Instant;

use mpc_metric::{EuclideanSpace, GridIndex, KernelStats, MetricSpace, PointId};
use mpc_sim::Cluster;

use crate::common::{covering_radius, gmm_coreset, to_point_ids};
use crate::kcenter::KCenterResult;
use crate::ladder::{BoundaryMode, LadderSearch, RungEval};
use crate::params::Params;
use crate::telemetry::{PhaseTimes, Telemetry};

/// Which evaluation engine answers the k-center ladder's rungs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KCenterEngine {
    /// Algorithm 3/4 threshold-graph machinery over all candidate pairs —
    /// works in any metric space.
    #[default]
    AllPairs,
    /// τ-scaled spatial hashing ([`GridIndex`]) — Euclidean only, work
    /// per rung near-linear in `n` for constant dimension.
    Grid,
}

impl KCenterEngine {
    /// Largest dimension the grid engine auto-selects for (and the cap
    /// [`mpc_kcenter_euclidean`] enforces even when forced): the stencil
    /// visits 3^d cells per query, which at d = 8 is 6 561 — past that the
    /// stencil itself rivals an all-pairs scan on realistic candidate
    /// counts.
    pub const GRID_MAX_DIM: usize = 8;

    /// Parses a `KCENTER_ENGINE` value. Unrecognized strings yield `None`.
    pub fn parse(s: &str) -> Option<KCenterEngine> {
        match s.trim() {
            "allpairs" | "all-pairs" => Some(KCenterEngine::AllPairs),
            "grid" => Some(KCenterEngine::Grid),
            _ => None,
        }
    }

    /// Parses an optional `KCENTER_ENGINE` value: `None` selects by
    /// dimension (`auto`), `Some(engine)` forces one. Unset or empty means
    /// all-pairs. The error lists the allowed values.
    pub fn parse_env(value: Option<&str>) -> Result<Option<KCenterEngine>, String> {
        match value.map(str::trim).unwrap_or("") {
            "" => Ok(Some(KCenterEngine::AllPairs)),
            "auto" => Ok(None),
            s => KCenterEngine::parse(s).map(Some).ok_or_else(|| {
                format!(
                    "KCENTER_ENGINE={s:?} is not an engine \
                     (expected one of: allpairs, all-pairs, grid, auto)"
                )
            }),
        }
    }

    /// The engine for a `dim`-dimensional Euclidean input: the
    /// `KCENTER_ENGINE` choice if set (`auto` selects by dimension), else
    /// all-pairs. The env var is read once and cached, mirroring
    /// `KCENTER_SPEED`. Any selection is clamped to all-pairs above
    /// [`KCenterEngine::GRID_MAX_DIM`].
    ///
    /// # Panics
    /// If `KCENTER_ENGINE` is set to anything but an engine name or `auto`.
    pub fn from_env(dim: usize) -> KCenterEngine {
        static CHOICE: OnceLock<Option<KCenterEngine>> = OnceLock::new();
        let choice = *CHOICE.get_or_init(|| {
            let value = std::env::var("KCENTER_ENGINE").ok();
            KCenterEngine::parse_env(value.as_deref()).unwrap_or_else(|e| panic!("{e}"))
        });
        let picked = choice.unwrap_or(KCenterEngine::Grid);
        if dim > Self::GRID_MAX_DIM {
            KCenterEngine::AllPairs
        } else {
            picked
        }
    }

    /// The `KCENTER_ENGINE` spelling of this engine.
    pub fn name(self) -> &'static str {
        match self {
            KCenterEngine::AllPairs => "allpairs",
            KCenterEngine::Grid => "grid",
        }
    }
}

/// Per-machine state of one rung's grid protocol: the local τ-grid, the
/// authoritative domination flags (within τ of an accepted center), and
/// the per-iteration tentative marks (within τ of this iteration's own
/// proposals), all indexed by grid slot.
struct MachineGrid {
    members: Vec<u32>,
    grid: GridIndex,
    dominated: Vec<bool>,
    tentative: Vec<u32>,
    /// Input positions before this are authoritatively dominated — the
    /// resume point for the proposal scan.
    start: usize,
}

impl MachineGrid {
    fn build(space: &EuclideanSpace, members: &[u32], tau: f64) -> Self {
        let grid = GridIndex::build(space.points(), members, tau);
        let n = members.len();
        Self {
            members: members.to_vec(),
            grid,
            dominated: vec![false; n],
            tentative: vec![0; n],
            start: 0,
        }
    }

    /// Ledger words for the grid plus the two per-point flag arrays.
    fn memory_words(&self) -> u64 {
        self.grid.memory_words() + (5 * self.members.len() as u64).div_ceil(8)
    }

    /// Greedy independent proposals among undominated local points, at
    /// most `need`, folding stencil tallies into `stats`.
    fn propose(
        &mut self,
        space: &EuclideanSpace,
        tau: f64,
        need: usize,
        epoch: u32,
        stats: &mut KernelStats,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        if need == 0 {
            return out;
        }
        while self.start < self.members.len() && self.dominated[self.grid.slot_of(self.start)] {
            self.start += 1;
        }
        let Self {
            members,
            grid,
            dominated,
            tentative,
            ..
        } = self;
        for (i, &id) in members.iter().enumerate().skip(self.start) {
            let slot = grid.slot_of(i);
            if dominated[slot] || tentative[slot] == epoch {
                continue;
            }
            out.push(id);
            let mut pairs = 0u64;
            let scan = grid.stencil(space.points().coords(PointId(id)), |s2, id2| {
                pairs += 1;
                if space.dist(PointId(id), PointId(id2)) <= tau {
                    tentative[s2] = epoch;
                }
            });
            stats.grid_stencil_cells += scan.cells as u64;
            stats.grid_pairs += pairs;
            if out.len() == need {
                break;
            }
        }
        out
    }

    /// Marks the τ-balls of newly accepted centers as dominated.
    fn mark(&mut self, space: &EuclideanSpace, tau: f64, centers: &[u32], stats: &mut KernelStats) {
        let Self {
            grid, dominated, ..
        } = self;
        for &c in centers {
            let mut pairs = 0u64;
            let scan = grid.stencil(space.points().coords(PointId(c)), |s2, id2| {
                if !dominated[s2] {
                    pairs += 1;
                    if space.dist(PointId(c), PointId(id2)) <= tau {
                        dominated[s2] = true;
                    }
                }
            });
            stats.grid_stencil_cells += scan.cells as u64;
            stats.grid_pairs += pairs;
        }
    }
}

/// One rung of the grid engine: a true (≤ `bound`)-bounded maximal
/// independent set of `G_τ` over `local_sets`, by the iterated
/// propose/extend/mark protocol described in the module docs. Returns the
/// set sorted ascending; `|set| = bound` means the rung's independence
/// certificate fired (the set may then not be maximal, exactly like
/// Algorithm 4's truncated returns).
pub fn grid_k_bounded_mis(
    cluster: &mut Cluster,
    space: &EuclideanSpace,
    local_sets: &[Vec<u32>],
    tau: f64,
    bound: usize,
    stats: &mut KernelStats,
) -> Vec<u32> {
    assert!(bound >= 1);
    let point_words = space.point_weight() + 1; // coords + id

    // Machine-local grid builds (no communication; memory is noted).
    let mut machines: Vec<MachineGrid> = cluster.map(local_sets, |_, members| {
        MachineGrid::build(space, members, tau)
    });
    let grid_words: Vec<u64> = machines.iter().map(|m| m.memory_words()).collect();
    cluster.note_memory_all(&grid_words);
    for m in &machines {
        stats.grid_cells += m.grid.n_cells() as u64;
    }

    let mut centers: Vec<u32> = Vec::new();
    let mut epoch = 0u32;
    loop {
        epoch += 1;
        let need = bound - centers.len();
        let mut proposal_stats: Vec<KernelStats> = Vec::new();
        let proposals: Vec<Vec<u32>> = {
            let outs = cluster.map_mut(&mut machines, |_, st| {
                let mut s = KernelStats::default();
                let out = st.propose(space, tau, need, epoch, &mut s);
                (out, s)
            });
            outs.into_iter()
                .map(|(out, s)| {
                    proposal_stats.push(s);
                    out
                })
                .collect()
        };
        for s in &proposal_stats {
            stats.merge(s);
        }
        let mut cands = cluster.gather("grid/propose", proposals, point_words);
        if cands.is_empty() {
            // Termination signal: one word to every machine.
            cluster.broadcast("grid/stop", 1, 1);
            break;
        }
        // Coordinator: extend greedily in global id order; candidates are
        // already > τ from `centers` (their machines checked domination),
        // so only pairwise checks among this round's acceptances remain.
        cands.sort_unstable();
        let mut fresh: Vec<u32> = Vec::new();
        for c in cands {
            let independent = fresh
                .iter()
                .all(|&z| space.dist(PointId(c), PointId(z)) > tau);
            stats.grid_pairs += fresh.len() as u64;
            if independent {
                fresh.push(c);
                if centers.len() + fresh.len() == bound {
                    break;
                }
            }
        }
        centers.extend(&fresh);
        cluster.broadcast("grid/centers", fresh.len(), point_words);
        if centers.len() == bound {
            break;
        }
        let mark_stats: Vec<KernelStats> = cluster.map_mut(&mut machines, |_, st| {
            let mut s = KernelStats::default();
            st.mark(space, tau, &fresh, &mut s);
            s
        });
        for s in &mark_stats {
            stats.merge(s);
        }
    }
    centers.sort_unstable();
    centers
}

/// The k-center ladder rungs evaluated by the grid engine (mirrors
/// `KCenterRungs` of the all-pairs engine).
struct GridRungs<'a> {
    space: &'a EuclideanSpace,
    local_sets: &'a [Vec<u32>],
    r: f64,
    k: usize,
    params: &'a Params,
    stats: KernelStats,
}

impl GridRungs<'_> {
    fn tau(&self, i: usize) -> f64 {
        self.r / (1.0 + self.params.epsilon).powi(i as i32)
    }
}

impl RungEval for GridRungs<'_> {
    type Rung = Vec<u32>;

    fn eval(&mut self, cluster: &mut Cluster, i: usize) -> Vec<u32> {
        grid_k_bounded_mis(
            cluster,
            self.space,
            self.local_sets,
            self.tau(i),
            self.k + 1,
            &mut self.stats,
        )
    }

    fn accept(&self, _i: usize, rung: &Vec<u32>) -> bool {
        rung.len() <= self.k
    }
}

/// Algorithm 5 with the grid engine answering every rung: the same coarse
/// GMM seeding, ladder schedule, and acceptance semantics as
/// [`crate::kcenter::mpc_kcenter`], with rungs evaluated by
/// [`grid_k_bounded_mis`] — same `2(1+ε)` guarantee, different (still
/// deterministic) tie-breaking, per-machine traffic `O(mk)` instead of
/// `Θ(n/m)`.
pub fn mpc_kcenter_grid(space: &EuclideanSpace, k: usize, params: &Params) -> KCenterResult {
    let mut cluster = match params.budget_words {
        Some(b) => Cluster::with_budget(params.m, params.seed, b),
        None => Cluster::new(params.m, params.seed),
    };
    mpc_kcenter_grid_on(&mut cluster, space, k, params)
}

/// Like [`mpc_kcenter_grid`] on a caller-provided cluster.
pub fn mpc_kcenter_grid_on(
    cluster: &mut Cluster,
    space: &EuclideanSpace,
    k: usize,
    params: &Params,
) -> KCenterResult {
    assert!(k >= 1, "k must be positive");
    params.validate();
    assert_eq!(cluster.m(), params.m, "cluster size must match params.m");
    let n = space.n();
    let partition = params.partition.build(n, params.m, params.seed);
    let local_sets = partition.all_items().to_vec();
    let input_words: Vec<u64> = local_sets
        .iter()
        .map(|s| s.len() as u64 * space.point_weight())
        .collect();
    cluster.note_memory_all(&input_words);
    cluster.ship_shards("setup/shards", &local_sets, space.point_weight());

    let coarse_started = Instant::now();
    let (q, _) = gmm_coreset(cluster, &space, &local_sets, k);
    let r = covering_radius(cluster, space, &local_sets, &q);
    let coarse_s = coarse_started.elapsed().as_secs_f64();

    if q.len() < k || r <= 0.0 {
        let mut telemetry = Telemetry::from_ledger(cluster.ledger());
        telemetry.phases.coarse_s = coarse_s;
        telemetry.kernels = space.kernel_stats();
        telemetry.wire = cluster.wire_summary();
        return KCenterResult {
            centers: to_point_ids(&q),
            radius: r.max(0.0),
            coarse_r: r.max(0.0),
            boundary_index: 0,
            telemetry,
        };
    }

    let ladder_started = Instant::now();
    let t = params.ladder_len(4.0, 1);
    let mut rungs = GridRungs {
        space,
        local_sets: &local_sets,
        r,
        k,
        params,
        stats: KernelStats::default(),
    };
    let mut search = LadderSearch::new(t);
    search.seed(0, q.clone());
    let boundary = search.search(
        cluster,
        &mut rungs,
        BoundaryMode::LastAccept,
        params.boundary_search,
    );
    let ladder_s = ladder_started.elapsed().as_secs_f64();

    let finalize_started = Instant::now();
    let centers_raw = search.take(boundary).expect("boundary was evaluated");
    debug_assert!(centers_raw.len() <= k);
    let radius = covering_radius(cluster, space, &local_sets, &centers_raw);
    let mut telemetry = Telemetry::from_ledger(cluster.ledger());
    telemetry.phases = PhaseTimes {
        coarse_s,
        ladder_s,
        finalize_s: finalize_started.elapsed().as_secs_f64(),
    };
    telemetry.ladder_evals = search.evals() as u64;
    telemetry.ladder_probes = search.probes() as u64;
    let mut kernels = space.kernel_stats().unwrap_or_default();
    kernels.merge(&rungs.stats);
    telemetry.kernels = Some(kernels);
    telemetry.wire = cluster.wire_summary();
    KCenterResult {
        centers: to_point_ids(&centers_raw),
        radius,
        coarse_r: r,
        boundary_index: boundary,
        telemetry,
    }
}

/// Engine-dispatched MPC k-center for Euclidean inputs: routes to the
/// grid or all-pairs engine per [`KCenterEngine::from_env`] (explicit
/// callers pick an engine with [`mpc_kcenter_grid`] /
/// [`crate::kcenter::mpc_kcenter`] directly).
pub fn mpc_kcenter_euclidean(space: &EuclideanSpace, k: usize, params: &Params) -> KCenterResult {
    match KCenterEngine::from_env(space.points().dim()) {
        KCenterEngine::Grid => mpc_kcenter_grid(space, k, params),
        KCenterEngine::AllPairs => crate::kcenter::mpc_kcenter(space, k, params),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kcenter::{mpc_kcenter, sequential_gmm_kcenter};
    use mpc_metric::{datasets, dist_point_to_set, PointSet};

    fn realized_radius(space: &EuclideanSpace, centers: &[PointId]) -> f64 {
        (0..space.n() as u32)
            .map(|v| dist_point_to_set(space, PointId(v), centers))
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn grid_mis_is_maximal_and_independent() {
        let space = EuclideanSpace::new(datasets::uniform_cube(400, 3, 5));
        let members: Vec<u32> = (0..400u32).collect();
        let local_sets: Vec<Vec<u32>> = (0..4)
            .map(|m| members.iter().copied().filter(|id| id % 4 == m).collect())
            .collect();
        let tau = 0.4;
        let mut cluster = Cluster::new(4, 5);
        let mut stats = KernelStats::default();
        let set = grid_k_bounded_mis(&mut cluster, &space, &local_sets, tau, 400, &mut stats);
        // Independent: pairwise > τ.
        for (a, &i) in set.iter().enumerate() {
            for &j in &set[a + 1..] {
                assert!(space.dist(PointId(i), PointId(j)) > tau);
            }
        }
        // Maximal: every point within τ of the set.
        let ids: Vec<PointId> = set.iter().map(|&i| PointId(i)).collect();
        for v in 0..400u32 {
            assert!(dist_point_to_set(&space, PointId(v), &ids) <= tau);
        }
        assert!(stats.grid_pairs > 0 && stats.grid_cells > 0);
    }

    #[test]
    fn grid_mis_truncates_at_bound() {
        let space = EuclideanSpace::new(datasets::uniform_cube(200, 2, 9));
        let local_sets: Vec<Vec<u32>> = vec![(0..200u32).collect()];
        let mut cluster = Cluster::new(1, 9);
        let mut stats = KernelStats::default();
        let set = grid_k_bounded_mis(&mut cluster, &space, &local_sets, 1e-6, 5, &mut stats);
        assert_eq!(set.len(), 5, "tiny τ forces the independence certificate");
    }

    #[test]
    fn grid_engine_matches_allpairs_guarantee() {
        for (n, dim, k, seed) in [(500usize, 2usize, 5usize, 3u64), (400, 3, 7, 11)] {
            let space = EuclideanSpace::new(datasets::gaussian_clusters(n, dim, k, 0.03, seed));
            let params = Params::practical(4, 0.1, seed);
            let grid = mpc_kcenter_grid(&space, k, &params);
            let seq = sequential_gmm_kcenter(&space, k);
            assert!(grid.centers.len() <= k);
            assert!(
                grid.radius <= 2.0 * (1.0 + params.epsilon) * seq.radius + 1e-9,
                "grid radius {} vs sequential {}",
                grid.radius,
                seq.radius
            );
            let all = mpc_kcenter(&space, k, &params);
            // Both engines carry the same 2(1+ε) guarantee against r*, and
            // each radius is itself ≥ r*, so either is within 2(1+ε) of
            // the other.
            assert!(
                grid.radius <= 2.0 * (1.0 + params.epsilon) * all.radius + 1e-9,
                "grid {} vs allpairs {}",
                grid.radius,
                all.radius
            );
            let true_r = realized_radius(&space, &grid.centers);
            assert!((grid.radius - true_r).abs() < 1e-9);
        }
    }

    #[test]
    fn duplicates_collapse_to_zero_radius() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![(i % 3) as f64, 0.0]).collect();
        let space = EuclideanSpace::new(PointSet::from_rows(&rows));
        let res = mpc_kcenter_grid(&space, 3, &Params::practical(2, 0.1, 1));
        assert!(res.radius <= 1e-12);
    }

    #[test]
    fn engine_env_parsing_and_clamp() {
        assert_eq!(KCenterEngine::parse("grid"), Some(KCenterEngine::Grid));
        assert_eq!(
            KCenterEngine::parse("allpairs"),
            Some(KCenterEngine::AllPairs)
        );
        assert_eq!(KCenterEngine::parse("quantum"), None);
        assert_eq!(KCenterEngine::default(), KCenterEngine::AllPairs);
        assert_eq!(KCenterEngine::Grid.name(), "grid");
        assert_eq!(
            KCenterEngine::parse_env(None),
            Ok(Some(KCenterEngine::AllPairs))
        );
        assert_eq!(KCenterEngine::parse_env(Some("auto")), Ok(None));
        assert_eq!(
            KCenterEngine::parse_env(Some("grid")),
            Ok(Some(KCenterEngine::Grid))
        );
        let err = KCenterEngine::parse_env(Some("gird")).unwrap_err();
        assert!(err.contains("allpairs, all-pairs, grid, auto"), "{err}");
    }
}
