//! Self-tests of the benchmark's own machinery.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use ledgerdb_core::{LedgerClient, LedgerConfig, LedgerDb, MemberRegistry};
use ledgerdb_crypto::ca::{CertificateAuthority, Role};
use ledgerdb_crypto::wire::Wire;
use ledgerdb_server::Request;
use perfbench::check::tampered_proof_rejected;
use perfbench::gen::{self, Rng, LEDGERD_SEED};
use perfbench::stats::{percentile, Summary};

fn wire_stream(seed: u64, stream: u64, count: usize, threads: usize) -> Vec<Vec<u8>> {
    gen::requests(seed, stream, count, threads)
        .into_iter()
        .map(|r| Request::Append(r).to_wire())
        .collect()
}

#[test]
fn same_seed_gives_byte_identical_requests() {
    let a = wire_stream(7, 2, 24, 1);
    let b = wire_stream(7, 2, 24, 3);
    assert_eq!(
        a, b,
        "a seed must fix the bytes, whatever the signing thread count"
    );
}

#[test]
fn different_seeds_and_streams_differ() {
    let a = wire_stream(7, 2, 24, 2);
    let b = wire_stream(8, 2, 24, 2);
    let c = wire_stream(7, 3, 24, 2);
    assert!(
        a.iter().zip(&b).all(|(x, y)| x != y),
        "another seed must change every request"
    );
    assert!(
        a.iter().zip(&c).all(|(x, y)| x != y),
        "another stream must change every request"
    );
}

#[test]
fn read_mix_follows_its_weights() {
    let mut rng = Rng::new(5, 1);
    let n = 100_000;
    let proves = (0..n)
        .filter(|_| gen::read_kind(&mut rng, &gen::READ_MIX) == gen::ReadKind::Prove)
        .count();
    let share = proves as f64 / n as f64;
    assert!((share - 0.50).abs() < 0.01, "Prove share {share}");
}

/// The textbook definition: sort, then take the value at rank
/// ceil(q * n) (1-based).
fn reference(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    v[rank - 1]
}

#[test]
fn percentile_matches_sorted_vector_reference() {
    let mut rng = Rng::new(11, 0);
    for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
        let values: Vec<f64> = (0..n).map(|_| rng.next_f64() * 1e3).collect();
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(percentile(&sorted, q), reference(&values, q), "n={n} q={q}");
        }
        let s = Summary::of(&values);
        assert_eq!(s.count, n);
        assert_eq!(s.p50, reference(&values, 0.5));
        assert_eq!(s.p99, reference(&values, 0.99));
    }
    // The top percentile leaves exactly ten samples beyond it.
    let values: Vec<f64> = (1..=1000).map(f64::from).collect();
    let s = Summary::of(&values);
    assert!((s.top_pct - 99.0).abs() < 1e-9);
    assert_eq!(values.iter().filter(|&&v| v > s.top).count(), 10);
}

/// A ledger configured like `ledgerd --seed perfbench`, with `n`
/// generated journals sealed, and a client synced to it.
fn sealed_ledger(n: usize) -> (LedgerDb, LedgerClient) {
    let ca = CertificateAuthority::from_seed(LEDGERD_SEED.as_bytes());
    let mut registry = MemberRegistry::new(*ca.public_key());
    registry
        .register(ca.issue("alice", Role::User, gen::signing_key().public()))
        .expect("register member");
    let config = LedgerConfig {
        block_size: 16,
        fam_delta: 15,
        name: "perfbench-selftest".into(),
        state_backend: Default::default(),
    };
    let mut ledger = LedgerDb::new(config, registry);
    for req in gen::requests(3, 1, n, 2) {
        ledger.append(req).expect("generated request is admitted");
    }
    ledger.seal_block();
    let mut client = LedgerClient::new(*ledger.lsp_public_key(), 15);
    client.sync(ledger.blocks()).expect("client syncs");
    (ledger, client)
}

#[test]
fn tampered_proof_check_fires() {
    let (ledger, client) = sealed_ledger(40);
    let (tx, proof) = ledger.prove_existence(17, &client.anchor()).expect("prove");
    let real = |h: &_, p: &_| client.verify_existence(h, p).is_ok();
    assert_eq!(tampered_proof_rejected(real, &tx, &proof), Ok(()));
    // A verify path that accepts anything must fail the check.
    assert!(tampered_proof_rejected(|_, _| true, &tx, &proof).is_err());
    // So must one that rejects everything.
    assert!(tampered_proof_rejected(|_, _| false, &tx, &proof).is_err());
}
