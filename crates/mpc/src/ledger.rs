//! Round and communication accounting.
//!
//! The ledger is the measurement instrument behind experiments E4 (round
//! complexity), E5 (per-machine communication) and E7 (edge decay): every
//! collective in [`crate::Cluster`] appends one [`RoundRecord`] with the
//! exact number of words each machine sent and received.

use serde::Serialize;

/// Words sent and received by one machine in one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct MachineIo {
    /// Words this machine sent during the round.
    pub sent: u64,
    /// Words this machine received during the round.
    pub received: u64,
}

impl MachineIo {
    /// Total traffic through the machine (the quantity the MPC model
    /// bounds by local memory).
    pub fn total(&self) -> u64 {
        self.sent + self.received
    }
}

/// Accounting for one MPC round.
#[derive(Debug, Clone, Serialize)]
pub struct RoundRecord {
    /// 1-based round index.
    pub round: u64,
    /// Human-readable label of the collective that consumed the round.
    pub label: String,
    /// Per-machine traffic.
    pub per_machine: Vec<MachineIo>,
}

impl RoundRecord {
    /// The largest per-machine traffic in this round.
    pub fn max_machine_words(&self) -> u64 {
        self.per_machine
            .iter()
            .map(MachineIo::total)
            .max()
            .unwrap_or(0)
    }

    /// Total words moved in this round (each word counted once on the send
    /// side).
    pub fn total_sent(&self) -> u64 {
        self.per_machine.iter().map(|io| io.sent).sum()
    }
}

/// A recorded breach of the per-round, per-machine communication budget.
///
/// The simulator never aborts on a breach — the paper's bounds are
/// with-high-probability, so rare breaches under aggressive "practical"
/// constants are data, not errors.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// Round in which the breach happened.
    pub round: u64,
    /// Label of the offending collective.
    pub label: String,
    /// Machine that exceeded the budget.
    pub machine: usize,
    /// Words the machine moved.
    pub words: u64,
    /// The configured budget.
    pub budget: u64,
}

/// The complete round-by-round communication ledger of one simulated
/// MPC execution.
#[derive(Debug, Clone, Serialize)]
pub struct Ledger {
    m: usize,
    rounds: Vec<RoundRecord>,
    budget: Option<u64>,
    violations: Vec<Violation>,
    peak_memory: Vec<u64>,
}

impl Ledger {
    /// A fresh ledger for `m` machines with no communication budget.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "need at least one machine");
        Self {
            m,
            rounds: Vec::new(),
            budget: None,
            violations: Vec::new(),
            peak_memory: vec![0; m],
        }
    }

    /// Sets the per-round per-machine word budget; traffic beyond it is
    /// recorded as a [`Violation`].
    pub fn set_budget(&mut self, words: u64) {
        self.budget = Some(words);
    }

    /// Number of machines.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of rounds consumed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.len() as u64
    }

    /// The per-round records.
    pub fn records(&self) -> &[RoundRecord] {
        &self.rounds
    }

    /// All recorded budget violations.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Maximum words any single machine moved in any single round — the
    /// quantity the MPC model constrains.
    pub fn max_machine_words_per_round(&self) -> u64 {
        self.rounds
            .iter()
            .map(RoundRecord::max_machine_words)
            .max()
            .unwrap_or(0)
    }

    /// Maximum total words any single machine moved across the whole
    /// execution (the paper's `Õ(mk)` communication-per-machine measure).
    pub fn max_machine_words(&self) -> u64 {
        let mut per_machine = vec![0u64; self.m];
        for r in &self.rounds {
            for (i, io) in r.per_machine.iter().enumerate() {
                per_machine[i] += io.total();
            }
        }
        per_machine.into_iter().max().unwrap_or(0)
    }

    /// Total words sent across all machines and rounds.
    pub fn total_words(&self) -> u64 {
        self.rounds.iter().map(RoundRecord::total_sent).sum()
    }

    /// Raises machine `machine`'s peak resident memory to at least `words`
    /// (the paper's third resource, `Õ(n/m + mk)` per machine). Collectives
    /// raise it automatically by each round's traffic; algorithms
    /// additionally note their resident state.
    pub fn note_memory(&mut self, machine: usize, words: u64) {
        let slot = &mut self.peak_memory[machine];
        *slot = (*slot).max(words);
    }

    /// The largest peak resident memory noted on any machine.
    pub fn max_machine_memory(&self) -> u64 {
        self.peak_memory.iter().copied().max().unwrap_or(0)
    }

    /// Panics unless `self` and `other` recorded the same execution:
    /// equal round counts, round-by-round equal labels and per-machine
    /// traffic, and equal peak memory. `ctx` prefixes every panic
    /// message.
    ///
    /// This is the assertion behind the determinism and kernel-neutrality
    /// suites: local compute — thread counts, batched kernels, speed
    /// tiers — must never perturb the communication ledger.
    pub fn assert_identical(&self, other: &Ledger, ctx: &str) {
        assert_eq!(self.rounds(), other.rounds(), "{ctx}: round counts");
        for (ra, rb) in self.rounds.iter().zip(&other.rounds) {
            assert_eq!(ra.label, rb.label, "{ctx}: round {} label", ra.round);
            assert_eq!(
                ra.per_machine, rb.per_machine,
                "{ctx}: round {} ({}) traffic",
                ra.round, ra.label
            );
        }
        assert_eq!(
            self.max_machine_memory(),
            other.max_machine_memory(),
            "{ctx}: peak memory"
        );
    }

    /// Records one finished round. `per_machine.len()` must equal `m`.
    pub fn record_round(&mut self, label: &str, per_machine: Vec<MachineIo>) {
        assert_eq!(
            per_machine.len(),
            self.m,
            "round record must cover every machine"
        );
        let round = self.rounds() + 1;
        if let Some(budget) = self.budget {
            for (machine, io) in per_machine.iter().enumerate() {
                if io.total() > budget {
                    self.violations.push(Violation {
                        round,
                        label: label.to_string(),
                        machine,
                        words: io.total(),
                        budget,
                    });
                }
            }
        }
        for (machine, io) in per_machine.iter().enumerate() {
            // A machine must at least buffer what it moves in a round.
            self.note_memory(machine, io.total());
        }
        self.rounds.push(RoundRecord {
            round,
            label: label.to_string(),
            per_machine,
        });
    }

    /// Aggregates rounds and sent words by collective label — where does
    /// the round/communication budget actually go? Returned sorted by
    /// total words, descending.
    pub fn summary_by_label(&self) -> Vec<(String, u64, u64)> {
        let mut acc: std::collections::BTreeMap<&str, (u64, u64)> =
            std::collections::BTreeMap::new();
        for r in &self.rounds {
            let e = acc.entry(&r.label).or_insert((0, 0));
            e.0 += 1;
            e.1 += r.total_sent();
        }
        let mut out: Vec<(String, u64, u64)> = acc
            .into_iter()
            .map(|(label, (rounds, words))| (label.to_string(), rounds, words))
            .collect();
        out.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        out
    }

    /// Serializes the per-round records as CSV
    /// (`round,label,machine,sent,received`) — the raw material for
    /// plotting round/communication profiles outside Rust.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("round,label,machine,sent,received\n");
        for r in &self.rounds {
            for (machine, io) in r.per_machine.iter().enumerate() {
                out.push_str(&format!(
                    "{},{},{},{},{}\n",
                    r.round, r.label, machine, io.sent, io.received
                ));
            }
        }
        out
    }

    /// Absorbs the rounds of another ledger (used when a sub-algorithm ran
    /// on its own cluster handle), renumbering them to follow this one.
    pub fn absorb(&mut self, other: Ledger) {
        assert_eq!(
            other.m, self.m,
            "cannot merge ledgers of different cluster sizes"
        );
        for r in other.rounds {
            self.record_round(&r.label, r.per_machine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io(sent: u64, received: u64) -> MachineIo {
        MachineIo { sent, received }
    }

    #[test]
    fn round_counting_and_maxima() {
        let mut l = Ledger::new(3);
        assert_eq!(l.rounds(), 0);
        l.record_round("a", vec![io(10, 0), io(0, 5), io(0, 5)]);
        l.record_round("b", vec![io(1, 1), io(2, 2), io(30, 0)]);
        assert_eq!(l.rounds(), 2);
        assert_eq!(l.max_machine_words_per_round(), 30);
        // machine 2 moved (0+5) + (30+0) = 35 total, the largest
        assert_eq!(l.max_machine_words(), 35);
        assert_eq!(l.total_words(), 10 + 33);
    }

    #[test]
    fn budget_violations_are_recorded_not_fatal() {
        let mut l = Ledger::new(2);
        l.set_budget(10);
        l.record_round("ok", vec![io(5, 5), io(3, 3)]);
        l.record_round("too-big", vec![io(50, 0), io(0, 50)]);
        assert_eq!(l.violations().len(), 2);
        assert_eq!(l.violations()[0].round, 2);
        assert_eq!(l.violations()[0].words, 50);
        assert_eq!(l.rounds(), 2);
    }

    #[test]
    fn absorb_renumbers() {
        let mut a = Ledger::new(2);
        a.record_round("x", vec![io(1, 0), io(0, 1)]);
        let mut b = Ledger::new(2);
        b.record_round("y", vec![io(2, 0), io(0, 2)]);
        b.record_round("z", vec![io(3, 0), io(0, 3)]);
        a.absorb(b);
        assert_eq!(a.rounds(), 3);
        assert_eq!(a.records()[2].round, 3);
        assert_eq!(a.records()[2].label, "z");
    }

    #[test]
    #[should_panic(expected = "different cluster sizes")]
    fn absorb_rejects_mismatched_m() {
        let mut a = Ledger::new(2);
        a.absorb(Ledger::new(3));
    }

    #[test]
    fn summary_groups_by_label() {
        let mut l = Ledger::new(2);
        l.record_round("x", vec![io(5, 0), io(0, 5)]);
        l.record_round("y", vec![io(1, 0), io(0, 1)]);
        l.record_round("x", vec![io(2, 0), io(0, 2)]);
        let s = l.summary_by_label();
        assert_eq!(s, vec![("x".to_string(), 2, 7), ("y".to_string(), 1, 1)]);
    }

    #[test]
    fn csv_export_lists_every_machine_round() {
        let mut l = Ledger::new(2);
        l.record_round("alpha", vec![io(3, 0), io(0, 3)]);
        let csv = l.to_csv();
        assert!(csv.starts_with("round,label,machine,sent,received\n"));
        assert!(csv.contains("1,alpha,0,3,0"));
        assert!(csv.contains("1,alpha,1,0,3"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn memory_tracking_takes_maxima() {
        let mut l = Ledger::new(2);
        assert_eq!(l.max_machine_memory(), 0);
        l.note_memory(0, 10);
        l.note_memory(0, 5);
        l.note_memory(1, 7);
        assert_eq!(l.max_machine_memory(), 10);
        // record_round raises memory to at least the traffic
        l.record_round("big", vec![io(50, 0), io(0, 2)]);
        assert_eq!(l.max_machine_memory(), 50);
    }

    #[test]
    fn empty_ledger_maxima_are_zero() {
        let l = Ledger::new(4);
        assert_eq!(l.max_machine_words(), 0);
        assert_eq!(l.max_machine_words_per_round(), 0);
        assert_eq!(l.total_words(), 0);
    }
}
