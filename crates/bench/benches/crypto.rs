//! Criterion micro-benches for the crypto substrate: the primitive costs
//! underlying every Dasein factor (SHA-256 for *what*, ECDSA for *who*,
//! attestation checks for *when*).

use ledgerdb_bench::harness::{self as criterion, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ledgerdb_crypto::field::Fp;
use ledgerdb_crypto::keys::KeyPair;
use ledgerdb_crypto::u256::{Modulus, U256};
use ledgerdb_crypto::{sha256, sha3_256};
use std::hint::black_box;

fn bench_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash");
    for size in [32usize, 256, 4096, 262_144] {
        let data = vec![0xa5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| sha256(d))
        });
        group.bench_with_input(BenchmarkId::new("sha3_256", size), &data, |b, d| {
            b.iter(|| sha3_256(d))
        });
    }
    group.finish();
}

fn bench_ecdsa(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecdsa");
    group.sample_size(20);
    let kp = KeyPair::from_seed(b"bench-ecdsa");
    let msg = sha256(b"journal digest");
    let sig = kp.sign(&msg);
    group.bench_function("sign", |b| b.iter(|| kp.sign(&msg)));
    group.bench_function("verify", |b| {
        b.iter(|| assert!(kp.public().verify(&msg, &sig)))
    });
    // Admission sees a different key and message on every request, so
    // verify cycles through 64 of each.
    let cases: Vec<_> = (0..64u32)
        .map(|i| {
            let kp = KeyPair::from_seed(&i.to_be_bytes());
            let msg = sha256(&[b"journal ".as_slice(), &i.to_be_bytes()].concat());
            let sig = kp.sign(&msg);
            (*kp.public(), msg, sig)
        })
        .collect();
    let mut next = 0;
    group.bench_function("verify_64_keys", |b| {
        b.iter(|| {
            let (pk, msg, sig) = &cases[next % cases.len()];
            next += 1;
            assert!(pk.verify(msg, sig))
        })
    });
    group.finish();
}

/// The layers under ECDSA: field arithmetic mod p and Jacobian point
/// operations.
fn bench_secp256k1(c: &mut Criterion) {
    let mut group = c.benchmark_group("secp256k1");
    let a = Fp::reduce(&U256::from_be_bytes(&sha256(b"field a").0));
    let b = Fp::reduce(&U256::from_be_bytes(&sha256(b"field b").0));
    group.bench_function("field_mul", |bn| bn.iter(|| Fp::mul(black_box(&a), black_box(&b))));
    group.bench_function("field_sqr", |bn| bn.iter(|| Fp::sq(black_box(&a))));
    group.bench_function("field_inv", |bn| bn.iter(|| Fp::inv(black_box(&a))));
    let p = KeyPair::from_seed(b"point p").public().point().to_jacobian().double();
    let q = KeyPair::from_seed(b"point q").public().point().to_jacobian().double();
    group.bench_function("point_double", |bn| bn.iter(|| black_box(&p).double()));
    group.bench_function("point_add", |bn| bn.iter(|| black_box(&p).add(black_box(&q))));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_hash, bench_ecdsa, bench_secp256k1
}
criterion_main!(benches);
