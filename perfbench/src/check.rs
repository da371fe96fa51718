//! Output checks behind the `failed` count, and output digests.
//!
//! Every check recomputes the claimed quantity from the input with the
//! public metric helpers and compares it with what the program returned,
//! then tests the paper's guarantee against a sequential GMM reference
//! (GMM's radius is at least the optimal radius and its diversity at most
//! the optimal diversity, so the bounds below follow from the theorems).

use mpc_clustering::metric::{dist_point_to_set, min_pairwise_distance, MetricSpace, PointId};

/// Relative slack for the guarantee inequalities only, absorbing the
/// rounding of `(1+ε)^i` ladder thresholds. Recomputed quantities are
/// compared bit for bit.
const BOUND_SLACK: f64 = 1e-12;

/// Tally of checked operations and failures.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            self.messages.push(format!("{what}: {msg}"));
        }
    }
}

fn ids_valid(n: usize, ids: &[PointId]) -> Result<(), String> {
    let mut seen: Vec<u32> = ids.iter().map(|p| p.0).collect();
    if let Some(bad) = seen.iter().find(|&&v| v as usize >= n) {
        return Err(format!("id {bad} out of range 0..{n}"));
    }
    seen.sort_unstable();
    if seen.windows(2).any(|w| w[0] == w[1]) {
        return Err("duplicate ids".into());
    }
    Ok(())
}

/// `r(V, C) = max_v d(v, C)` over every point of the space.
pub fn covering_radius_all<M: MetricSpace + ?Sized>(metric: &M, centers: &[PointId]) -> f64 {
    (0..metric.n() as u32)
        .map(|v| dist_point_to_set(metric, PointId(v), centers))
        .fold(0.0f64, f64::max)
}

/// A k-center answer: at most `k` distinct valid ids, a radius equal to
/// the recomputed `r(V, C)`, and radius `≤ 2(1+ε)·r_GMM`.
pub fn kcenter<M: MetricSpace + ?Sized>(
    metric: &M,
    k: usize,
    epsilon: f64,
    centers: &[PointId],
    radius: f64,
    r_gmm: f64,
) -> Result<(), String> {
    if centers.is_empty() || centers.len() > k {
        return Err(format!("{} centers for k = {k}", centers.len()));
    }
    ids_valid(metric.n(), centers)?;
    let recomputed = covering_radius_all(metric, centers);
    if recomputed.to_bits() != radius.to_bits() {
        return Err(format!("radius {radius} but r(V, C) = {recomputed}"));
    }
    let bound = 2.0 * (1.0 + epsilon) * r_gmm;
    if radius > bound * (1.0 + BOUND_SLACK) {
        return Err(format!("radius {radius} exceeds 2(1+ε)·r_GMM = {bound}"));
    }
    Ok(())
}

/// A k-diversity answer: exactly `k` distinct valid ids, a value equal to
/// the recomputed minimum pairwise distance, and value `≥ div_GMM/(2+ε)`.
pub fn diversity<M: MetricSpace + ?Sized>(
    metric: &M,
    k: usize,
    epsilon: f64,
    subset: &[PointId],
    value: f64,
    div_gmm: f64,
) -> Result<(), String> {
    if subset.len() != k {
        return Err(format!("{} points for k = {k}", subset.len()));
    }
    ids_valid(metric.n(), subset)?;
    let recomputed = min_pairwise_distance(metric, subset);
    if recomputed.to_bits() != value.to_bits() {
        return Err(format!("diversity {value} but min pairwise = {recomputed}"));
    }
    let bound = div_gmm / (2.0 + epsilon);
    if value < bound * (1.0 - BOUND_SLACK) {
        return Err(format!("diversity {value} below div_GMM/(2+ε) = {bound}"));
    }
    Ok(())
}

/// A served k-center answer over all inserted points `P`: its certified
/// radius must cover `P` (`≥ r(P, C)`) and stay within the batch factor
/// plus the merge slack, `≤ 2(1+ε)·r_GMM(P) + (3+2ε)·δ`.
pub fn served_kcenter<M: MetricSpace + ?Sized>(
    all: &M,
    k: usize,
    epsilon: f64,
    centers: &[PointId],
    served_radius: f64,
    delta: f64,
    r_gmm: f64,
) -> Result<(), String> {
    if centers.is_empty() || centers.len() > k {
        return Err(format!("{} centers for k = {k}", centers.len()));
    }
    ids_valid(all.n(), centers)?;
    let brute = covering_radius_all(all, centers);
    if served_radius < brute {
        return Err(format!(
            "served radius {served_radius} below brute-force r(P, C) = {brute}"
        ));
    }
    let bound = 2.0 * (1.0 + epsilon) * r_gmm + (3.0 + 2.0 * epsilon) * delta;
    if served_radius > bound * (1.0 + BOUND_SLACK) {
        return Err(format!("served radius {served_radius} exceeds {bound}"));
    }
    Ok(())
}

/// A served k-diversity answer: `k` distinct valid ids whose exact
/// minimum pairwise distance is the served value, at least
/// `(div_GMM(P) − 2δ)/(2+ε)`.
pub fn served_diversity<M: MetricSpace + ?Sized>(
    all: &M,
    k: usize,
    epsilon: f64,
    subset: &[PointId],
    value: f64,
    delta: f64,
    div_gmm: f64,
) -> Result<(), String> {
    diversity(all, k, epsilon, subset, value, 0.0)?;
    let bound = (div_gmm - 2.0 * delta) / (2.0 + epsilon);
    if value < bound * (1.0 - BOUND_SLACK) {
        return Err(format!("served diversity {value} below {bound}"));
    }
    Ok(())
}

/// FNV-1a over a stream of 64-bit words: a stable digest of an output.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn ids(self, ids: &[PointId]) -> Self {
        ids.iter()
            .fold(self.word(ids.len() as u64), |d, p| d.word(u64::from(p.0)))
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_clustering::core::{diversity::mpc_diversity, kcenter::mpc_kcenter, Params};
    use mpc_clustering::core::{
        diversity::sequential_gmm_diversity, kcenter::sequential_gmm_kcenter,
    };
    use mpc_clustering::metric::{datasets, EuclideanSpace};

    fn space() -> EuclideanSpace {
        EuclideanSpace::new(datasets::gaussian_clusters(300, 3, 4, 0.02, 5))
    }

    #[test]
    fn correct_kcenter_passes_and_corruptions_fail() {
        let metric = space();
        let params = Params::practical(4, 0.1, 5);
        let res = mpc_kcenter(&metric, 4, &params);
        let r_gmm = sequential_gmm_kcenter(&metric, 4).radius;
        let check = |centers: &[PointId], radius: f64| {
            let mut checks = Checks::default();
            checks.record("kcenter", kcenter(&metric, 4, 0.1, centers, radius, r_gmm));
            checks
        };
        assert_eq!(check(&res.centers, res.radius).failed, 0);

        let wrong_radius = check(&res.centers, res.radius * 0.5);
        assert_eq!((wrong_radius.attempted, wrong_radius.failed), (1, 1));
        let mut dup = res.centers.clone();
        dup[1] = dup[0];
        assert_eq!(check(&dup, res.radius).failed, 1);
        let mut out_of_range = res.centers.clone();
        out_of_range[0] = PointId(10_000);
        assert_eq!(check(&out_of_range, res.radius).failed, 1);
        let too_many: Vec<PointId> = (0..5).map(PointId).collect();
        let r = covering_radius_all(&metric, &too_many);
        assert_eq!(check(&too_many, r).failed, 1);
        // A consistent but poor answer breaks the 2(1+ε) guarantee.
        let poor = [PointId(0)];
        assert_eq!(check(&poor, covering_radius_all(&metric, &poor)).failed, 1);
    }

    #[test]
    fn correct_diversity_passes_and_corruptions_fail() {
        let metric = space();
        let params = Params::practical(4, 0.1, 5);
        let res = mpc_diversity(&metric, 4, &params);
        let div_gmm = sequential_gmm_diversity(&metric, 4).diversity;
        let check = |subset: &[PointId], value: f64| {
            let mut checks = Checks::default();
            checks.record("div", diversity(&metric, 4, 0.1, subset, value, div_gmm));
            checks.failed
        };
        assert_eq!(check(&res.subset, res.diversity), 0);
        assert_eq!(check(&res.subset, res.diversity * 1.5), 1);
        assert_eq!(check(&res.subset[..3], res.diversity), 1);
        // Two nearly coincident points: consistent value, broken bound.
        let mut close = res.subset.clone();
        let nearest = (0..300u32)
            .filter(|&v| v != close[0].0)
            .min_by(|&a, &b| {
                metric
                    .dist(close[0], PointId(a))
                    .total_cmp(&metric.dist(close[0], PointId(b)))
            })
            .unwrap();
        close[1] = PointId(nearest);
        if !close[2..].contains(&PointId(nearest)) {
            let value = min_pairwise_distance(&metric, &close);
            assert_eq!(check(&close, value), 1);
        }
    }

    #[test]
    fn served_answers_below_their_certificate_fail() {
        let metric = space();
        let gmm = sequential_gmm_kcenter(&metric, 4);
        let r = covering_radius_all(&metric, &gmm.centers);
        let served = |radius: f64| served_kcenter(&metric, 4, 0.1, &gmm.centers, radius, 0.0, r);
        assert!(served(r).is_ok());
        // A served radius that does not cover every point is a failure.
        assert!(served(r * 0.9).is_err());
        assert!(served(r * 3.0).is_err());

        let div = sequential_gmm_diversity(&metric, 4);
        let served =
            |value: f64| served_diversity(&metric, 4, 0.1, &div.subset, value, 0.0, div.diversity);
        assert!(served(div.diversity).is_ok());
        assert!(served(div.diversity * 0.99).is_err());
    }

    #[test]
    fn digest_separates_outputs() {
        let a = Digest::default().ids(&[PointId(1), PointId(2)]).value();
        let b = Digest::default().ids(&[PointId(2), PointId(1)]).value();
        assert_ne!(a, b);
        assert_eq!(a, Digest::default().ids(&[PointId(1), PointId(2)]).value());
    }
}
