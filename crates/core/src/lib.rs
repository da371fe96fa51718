//! The paper's algorithms: "Almost Optimal Massively Parallel Algorithms
//! for k-Center Clustering and Diversity Maximization" (Haqi &
//! Zarrabi-Zadeh, SPAA 2023).
//!
//! | Paper | Module | What it does |
//! |---|---|---|
//! | Algorithm 1 | [`gmm`] | Gonzalez greedy — sequential 2-approx for both problems, and the coreset builder |
//! | Algorithm 3 / Theorem 9 | [`degree`] | `1 ± ε` MPC degree approximation in threshold graphs |
//! | Algorithm 4 / Theorem 15 | [`kbmis`] | constant-round MPC *k-bounded MIS* |
//! | Algorithm 2 / Theorem 3 | [`diversity`] | `(2+ε)`-approx MPC k-diversity maximization |
//! | Algorithm 5 / Theorem 17 | [`kcenter`] | `(2+ε)`-approx MPC k-center |
//! | Algorithm 6 / Theorem 18 | [`ksupplier`] | `(3+ε)`-approx MPC k-supplier |
//! | §7 (extension) | [`dominating`] | dominating sets in graphs of bounded neighborhood independence |
//!
//! All algorithms run on the [`mpc_sim::Cluster`] simulator, use a
//! constant number of MPC rounds, and keep per-machine communication in
//! `Õ(mk)` — quantities the simulator's ledger measures and the
//! `mpc-bench` experiments validate.
//!
//! Outputs are **unconditionally valid** (true k-bounded MISes, feasible
//! clusterings); the probabilistic parts of the paper's analysis affect
//! only the measured round/communication counts. See DESIGN.md.

pub mod assignment;
pub mod common;
pub mod degree;
pub mod diversity;
pub mod dominating;
pub mod gmm;
pub mod grid;
pub mod kbmis;
pub mod kcenter;
pub mod ksupplier;
pub mod ladder;
pub mod params;
pub mod telemetry;
pub mod verify;

pub use grid::KCenterEngine;
pub use params::{BoundarySearch, Params, PartitionStrategy};
pub use telemetry::{MemoStats, PhaseTimes, Telemetry};

/// Checks every `KCENTER_*` variable the workspace reads — the speed tier
/// (`KCENTER_SPEED`), the k-center engine (`KCENTER_ENGINE`), the
/// transport (`KCENTER_TRANSPORT`) and the pool width (`KCENTER_THREADS`)
/// — and returns the first invalid one as an error listing the allowed
/// values. The readers themselves panic on such a value at first use;
/// front ends call this once at startup to report it cleanly instead.
pub fn check_env() -> Result<(), String> {
    let var = |name: &str| std::env::var(name).ok();
    mpc_metric::SpeedTier::parse_env(var("KCENTER_SPEED").as_deref())?;
    KCenterEngine::parse_env(var("KCENTER_ENGINE").as_deref())?;
    mpc_sim::TransportKind::parse_env(var("KCENTER_TRANSPORT").as_deref())?;
    rayon::pool::parse_threads_env(var("KCENTER_THREADS").as_deref())?;
    Ok(())
}
