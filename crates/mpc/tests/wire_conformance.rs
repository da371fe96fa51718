//! Wire-conformance properties for the byte-level loopback transport.
//!
//! The contract under test: for every collective on the loopback backend,
//! the payload bytes a machine physically moves in a round equal exactly
//! `8 ×` the words the ledger charges that machine in that round — the
//! ledger is not an estimate of the wire, it *is* the wire, in words.
//! And because decoded frames are what the algorithms keep computing
//! with, loopback must reproduce the `sim` values bit-for-bit.

use mpc_sim::{Cluster, TransportKind};
use proptest::prelude::*;

fn arb_contributions() -> impl Strategy<Value = Vec<Vec<u32>>> {
    (1usize..7)
        .prop_flat_map(|m| prop::collection::vec(prop::collection::vec(any::<u32>(), 0..16), m..=m))
}

/// Drives one instance of every collective and returns everything the
/// caller can observe, so sim/loopback runs can be compared wholesale.
fn drive_all(c: &mut Cluster, contribs: &[Vec<u32>], weight: u64) -> Vec<Vec<u32>> {
    let m = c.m();
    let mut observed: Vec<Vec<u32>> = Vec::new();
    observed.push(c.all_broadcast("t/all_broadcast", contribs.to_vec(), weight));
    observed.push(c.gather("t/gather", contribs.to_vec(), weight));
    c.broadcast("t/broadcast", contribs[0].len(), weight);
    let shares: Vec<Vec<u32>> = (0..m)
        .map(|dst| contribs[dst % contribs.len()].clone())
        .collect();
    for part in c.scatter("t/scatter", shares, weight) {
        observed.push(part);
    }
    let outboxes: Vec<Vec<Vec<u32>>> = (0..m)
        .map(|src| {
            (0..m)
                .map(|dst| {
                    contribs[(src + dst) % contribs.len()]
                        .iter()
                        .map(|&v| v.wrapping_add((src * m + dst) as u32))
                        .collect()
                })
                .collect()
        })
        .collect();
    for inbox in c.exchange("t/exchange", outboxes, weight) {
        for slot in inbox {
            observed.push(slot);
        }
    }
    let sums: Vec<u32> = contribs
        .iter()
        .map(|v| v.iter().fold(0u32, |a, &b| a.wrapping_add(b)))
        .collect();
    observed.push(vec![
        c.reduce("t/reduce", sums.clone(), 1, |a, b| a.wrapping_add(b))
    ]);
    observed.push(vec![
        c.all_reduce("t/all_reduce", sums, 1, |a, b| a.wrapping_add(b))
    ]);
    observed
}

/// Asserts the conformance identity on a wire-backed cluster: wire rounds
/// align 1:1 with ledger records and every machine's bytes are exactly
/// `8 ×` its charged words.
fn assert_wire_matches_ledger(c: &Cluster) {
    let stats = c.wire_stats().expect("wire backend keeps stats");
    let records = c.ledger().records();
    assert_eq!(
        stats.rounds.len(),
        records.len(),
        "wire rounds align 1:1 with ledger records"
    );
    for (wr, rec) in stats.rounds.iter().zip(records) {
        assert_eq!(wr.label, rec.label, "round labels align");
        assert_eq!(wr.per_machine.len(), rec.per_machine.len());
        for (mach, (bio, mio)) in wr.per_machine.iter().zip(&rec.per_machine).enumerate() {
            assert_eq!(
                bio.sent,
                mio.sent * 8,
                "machine {mach} sent bytes == 8 x words in `{}`",
                rec.label
            );
            assert_eq!(
                bio.received,
                mio.received * 8,
                "machine {mach} received bytes == 8 x words in `{}`",
                rec.label
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every collective on the loopback backend: decoded values and the
    /// ledger are identical to sim, and bytes == 8 × words per machine per
    /// round.
    #[test]
    fn loopback_is_conformant_and_value_identical(
        contribs in arb_contributions(),
        weight in 1u64..6,
        seed in any::<u64>(),
    ) {
        let m = contribs.len();
        let mut sim = Cluster::with_transport(m, seed, TransportKind::Sim);
        let mut loop_ = Cluster::with_transport(m, seed, TransportKind::Loopback);
        let sim_vals = drive_all(&mut sim, &contribs, weight);
        let loop_vals = drive_all(&mut loop_, &contribs, weight);
        prop_assert_eq!(sim_vals, loop_vals);
        loop_.ledger().assert_identical(sim.ledger(), "loopback vs sim");
        assert_wire_matches_ledger(&loop_);
    }

    /// Setup-plane shard shipping moves bytes but never touches the
    /// ledger, at any shard shape.
    #[test]
    fn ship_shards_stays_off_ledger(contribs in arb_contributions()) {
        let m = contribs.len();
        let mut c = Cluster::with_transport(m, 7, TransportKind::Loopback);
        c.ship_shards("setup/shards", &contribs, 1);
        prop_assert_eq!(c.rounds(), 0);
        let stats = c.wire_stats().unwrap();
        let total: u64 = contribs.iter().map(|v| v.len() as u64).sum();
        prop_assert_eq!(stats.setup_bytes, total * 8);
        prop_assert_eq!(stats.payload_bytes, 0);
    }
}

/// A payload whose compact encoding exceeds its charged slot must abort
/// loudly on a wire backend — silent undercharging would let the ledger
/// drift below the bytes a real deployment moves.
#[test]
#[should_panic(expected = "wire undercharge")]
fn undercharged_weight_panics_on_wire() {
    let mut c = Cluster::with_transport(2, 0, TransportKind::Loopback);
    // A 3-element Vec<u64> item encodes to 4 words (length prefix + data)
    // but is charged only 3 here.
    let vals: Vec<Vec<Vec<u64>>> = vec![vec![vec![1, 2, 3]], vec![vec![4, 5, 6]]];
    c.all_broadcast("t/undercharged", vals, 3);
}

/// The sim backend keeps no wire stats at all — zero-overhead reference.
#[test]
fn sim_has_no_wire_state() {
    let mut c = Cluster::with_transport(3, 0, TransportKind::Sim);
    let _ = c.all_broadcast("t", vec![vec![1u32], vec![2], vec![3]], 1);
    assert!(c.wire_stats().is_none());
    assert!(c.wire_summary().is_none());
}
