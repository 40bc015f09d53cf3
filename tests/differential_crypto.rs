//! Differential and known-answer suite for the secp256k1 arithmetic.
//!
//! The production field, scalar and point code (specialised reductions,
//! fixed-base table, GLV/wNAF verification, inversion-free r check) is
//! compared against the crate's first implementation, kept as a test
//! oracle in `support/secp256k1_oracle.rs`: signatures must be
//! byte-identical and every verify verdict must agree, across honest,
//! tampered and malformed inputs. Known-answer vectors pin the results
//! to published values and to a signature the first implementation
//! produced.
//!
//! The default cases are few so the debug-mode suite stays quick;
//! `long_seeded_sweep_against_oracle` is the same comparison at scale
//! (`cargo test --release --test differential_crypto -- --include-ignored`).

#[path = "support/secp256k1_oracle.rs"]
mod oracle;

use ledgerdb::crypto::digest::Digest;
use ledgerdb::crypto::ecdsa::{self, x_matches_r};
use ledgerdb::crypto::field::{Fp, P};
use ledgerdb::crypto::keys::KeyPair;
use ledgerdb::crypto::point::{mul_generator, Affine, Jacobian};
use ledgerdb::crypto::scalar::{Scalar, N};
use ledgerdb::crypto::u256::{Modulus, U256};
use ledgerdb::crypto::{sha256, Signature};
use ledgerdb_bench::cases::{run_cases, Gen};

fn hex(s: &str) -> U256 {
    U256::from_hex(s).unwrap()
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A square root mod p (p ≡ 3 mod 4), if `a` is a square.
fn sqrt_mod_p(a: &U256) -> Option<U256> {
    // (p + 1) / 4
    let e = P.adc(&U256::ONE).0;
    let e = U256([
        (e.0[0] >> 2) | (e.0[1] << 62),
        (e.0[1] >> 2) | (e.0[2] << 62),
        (e.0[2] >> 2) | (e.0[3] << 62),
        e.0[3] >> 2,
    ]);
    let root = Fp::pow(a, &e);
    (Fp::sq(&root) == *a).then_some(root)
}

/// The first curve point whose x is at least `from`.
fn point_with_x_from(from: U256) -> (U256, U256) {
    let mut x = from;
    loop {
        let rhs = Fp::add(&Fp::mul(&Fp::sq(&Fp::reduce(&x)), &Fp::reduce(&x)), &U256::from_u64(7));
        if let Some(y) = sqrt_mod_p(&rhs) {
            return (x, y);
        }
        x = x.adc(&U256::ONE).0;
    }
}

fn affine_xy(p: &Affine) -> (U256, U256) {
    match *p {
        Affine::Point { x, y } => (x, y),
        Affine::Infinity => panic!("unexpected infinity"),
    }
}

#[test]
fn known_answer_generator_multiples() {
    let g = Affine::generator().to_jacobian();
    let vectors = [
        (
            U256::ONE,
            "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
            "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8",
        ),
        (
            U256::from_u64(2),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a",
        ),
        (
            U256::from_u64(3),
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
            "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672",
        ),
        (
            N.sbb(&U256::ONE).0,
            "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
            "b7c52588d95c3b9aa25b0403f1eef75702e84bb7597aabe663b82f6f04ef2777",
        ),
    ];
    for (k, x, y) in vectors {
        let want = Affine::Point { x: hex(x), y: hex(y) };
        assert_eq!(mul_generator(&k).to_affine(), want, "fixed-base k = {k:?}");
        assert_eq!(g.mul_vartime(&k).to_affine(), want, "wNAF k = {k:?}");
        assert_eq!(oracle::mul_generator(&k).to_affine(), want, "oracle k = {k:?}");
    }
    assert!(mul_generator(&N).is_infinity());
    assert!(g.mul_vartime(&N).is_infinity());
}

/// Key and signature bytes as the first implementation produced them.
#[test]
fn known_answer_pinned_signature() {
    let kp = KeyPair::from_seed(b"differential-crypto/pinned");
    let digest = sha256(b"pinned message");
    assert_eq!(
        to_hex(&kp.public().to_bytes()),
        "c73c4de60df3423d247f6556ea0e5fe773f457434c43cd1045d903dc891aa343\
         cb117fac3d950e4ef3f966620a1a6b2193db5bd79913d79dad6f6225f416fe8a"
    );
    let sig = kp.sign(&digest);
    assert_eq!(
        to_hex(&sig.to_bytes()),
        "ae7644e0dcf7c5c6f2c2b0f6280726384679b72c8598c922a8988f4ea208c8e1\
         2b115d962fc8f4fd8a36529c05704659934886fcdc9eb70519100fc2f70a9418"
    );
    assert!(kp.public().verify(&digest, &sig));
}

/// A valid signature for an arbitrary public point, made without its
/// secret key: pick `u1, u2`, take `R = u1·G + u2·Q`, then
/// `r = R.x mod n`, `s = r/u2` and digest `z = u1·s`.
fn forge_for_point(q: &Affine, g: &mut Gen) -> Option<(Digest, Signature)> {
    let u1 = Scalar::reduce(&U256::from_be_bytes(&g.array32()));
    let u2 = Scalar::reduce(&U256::from_be_bytes(&g.array32()));
    let r_point = oracle::double_scalar_mul(
        &u1,
        &oracle::mul_generator(&U256::ONE),
        &u2,
        &oracle::Jacobian::from_affine(q),
    );
    let (x, _) = affine_xy(&r_point.to_affine());
    let r = Scalar::reduce(&x);
    let s = Scalar::mul(&r, &Scalar::inv(&u2)?);
    let z = Scalar::mul(&u1, &s);
    (!r.is_zero() && !s.is_zero()).then_some((Digest(z.to_be_bytes()), Signature { r, s }))
}

/// One seeded comparison: byte-identical signing, then the same verdict
/// from both implementations on every input family.
fn differential_case(g: &mut Gen) {
    let kp = KeyPair::from_seed(&g.u64().to_be_bytes());
    let other = KeyPair::from_seed(&g.u64().to_be_bytes());
    let digest = sha256(&g.bytes(0..=64));
    let other_digest = sha256(&[digest.0.as_slice(), b"tampered"].concat());

    let sig = kp.sign(&digest);
    let reference = oracle::sign(&kp.secret().0, &digest);
    assert_eq!(to_hex(&sig.to_bytes()), to_hex(&reference.to_bytes()), "signature bytes");

    let pk = kp.public().point();
    let (x, y) = affine_xy(&pk);
    let flip = g.below(512) as usize;
    let mut flipped = sig.to_bytes();
    flipped[flip / 8] ^= 1 << (flip % 8);
    let tampered = Signature {
        r: U256::from_be_bytes(flipped[..32].try_into().unwrap()),
        s: U256::from_be_bytes(flipped[32..].try_into().unwrap()),
    };
    let plus_n = |v: &U256| match v.adc(&N) {
        (sum, false) => sum,
        (_, true) => N,
    };
    let forged = forge_for_point(&pk, g);

    let mut cases: Vec<(&str, Affine, Digest, Signature, bool)> = vec![
        ("honest", pk, digest, sig, true),
        ("high-s twin", pk, digest, Signature { r: sig.r, s: Scalar::neg(&sig.s) }, true),
        ("tampered message", pk, other_digest, sig, false),
        ("tampered signature", pk, digest, tampered, false),
        ("wrong key", other.public().point(), digest, sig, false),
        ("r >= n", pk, digest, Signature { r: plus_n(&sig.r), s: sig.s }, false),
        ("s >= n", pk, digest, Signature { r: sig.r, s: plus_n(&sig.s) }, false),
        ("r = 0", pk, digest, Signature { r: U256::ZERO, s: sig.s }, false),
        ("s = 0", pk, digest, Signature { r: sig.r, s: U256::ZERO }, false),
        ("off-curve key", Affine::Point { x, y: Fp::add(&y, &U256::ONE) }, digest, sig, false),
        ("infinity key", Affine::Infinity, digest, sig, false),
    ];
    if let Some((forged_digest, forged_sig)) = forged {
        cases.push(("forged for key", pk, forged_digest, forged_sig, true));
        cases.push(("forged, wrong key", other.public().point(), forged_digest, forged_sig, false));
    }
    for (label, key, d, s, expect) in cases {
        let got = ecdsa::verify(&key, &d, &s);
        assert_eq!(got, oracle::verify(&key, &d, &s), "verdict differs from oracle: {label}");
        assert_eq!(got, expect, "unexpected verdict: {label}");
    }
}

#[test]
fn seeded_differential_against_oracle() {
    run_cases("differential crypto", 16, differential_case);
}

/// Public keys are parsed without requiring coordinates below p: the
/// first implementation reduced `x + p` like `x`, and so must this one.
#[test]
fn non_canonical_key_coordinates_keep_their_verdicts() {
    // x = 1 is on the curve and 1 + p still fits in 256 bits.
    let (x, y) = point_with_x_from(U256::ONE);
    assert_eq!(x, U256::ONE);
    let canonical = Affine::Point { x, y };
    let wide = Affine::Point { x: x.adc(&P).0, y };
    assert!(wide.is_on_curve() && oracle::is_on_curve(&wide));
    run_cases("non-canonical key", 4, |g| {
        let (digest, sig) = forge_for_point(&canonical, g).expect("forgeable");
        for key in [canonical, wide] {
            assert!(ecdsa::verify(&key, &digest, &sig));
            assert!(oracle::verify(&key, &digest, &sig));
        }
        let other = sha256(&g.bytes(1..=8));
        assert_eq!(ecdsa::verify(&wide, &other, &sig), oracle::verify(&wide, &other, &sig));
    });
}

/// The r check's second branch: when R.x lies in [n, p), `R.x mod n =
/// R.x - n` and the check must match `r = R.x - n` through `(r + n)·Z²`.
/// Random signatures reach it with probability about 2^-128.
#[test]
fn r_check_matches_x_between_n_and_p() {
    let (x, y) = point_with_x_from(N);
    assert!(x.ge(&N) && x.lt(&P));
    let r = x.sbb(&N).0;
    for z in [
        U256::ONE,
        U256::from_u64(2),
        hex("deadbeef0123456789abcdef0fedcba987654321cafebabe1122334455667788"),
    ] {
        let zz = Fp::sq(&z);
        let point = Jacobian { x: Fp::mul(&x, &zz), y: Fp::mul(&y, &Fp::mul(&zz, &z)), z };
        let reference = oracle::Jacobian { x: point.x, y: point.y, z: point.z };
        assert!(x_matches_r(&point, &r), "R.x = r + n must match r");
        assert!(oracle::x_mod_n_is_r(&reference, &r));
        let r1 = r.adc(&U256::ONE).0;
        assert!(!x_matches_r(&point, &r1));
        assert!(!oracle::x_mod_n_is_r(&reference, &r1));
    }
    assert!(!x_matches_r(&Jacobian::INFINITY, &r));
}

/// The branch's guard: for `r + n ≥ p`, `(r + n) mod p` is a small x, and
/// a point with that x must not match `r`.
#[test]
fn r_check_rejects_wrapped_r_plus_n() {
    let (x, y) = point_with_x_from(U256::ONE);
    let point = Jacobian { x, y, z: U256::ONE };
    // r + n = p + x, so (r + n)·Z² ≡ x (mod p) although x mod n = x ≠ r.
    let r = P.sbb(&N).0.adc(&x).0;
    assert!(r.lt(&N));
    assert!(!x_matches_r(&point, &r));
    assert!(!oracle::x_mod_n_is_r(&oracle::Jacobian { x, y, z: U256::ONE }, &r));
    assert!(x_matches_r(&point, &x), "the direct branch still matches");
}

/// Values that stress limb carries and the edges of both moduli.
fn edge_values(m: &U256, c: &U256) -> Vec<U256> {
    let max = u64::MAX;
    vec![
        U256::ZERO,
        U256::ONE,
        U256::from_u64(2),
        m.sbb(&U256::ONE).0,
        m.sbb(&U256::from_u64(2)).0,
        c.sbb(&U256::ONE).0,
        *c,
        U256([max, 0, 0, 0]),
        U256([max, max, 0, 0]),
        U256([max, max, max, 0]),
        U256([0, 0, 0, 1 << 63]),
        U256([1, 0, 0, 1 << 63]),
        U256([max, 0, max, 0]),
        U256([0, max, 0, max >> 1]),
        hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffff7ffffe17"),
        hex("aa11bb22cc33dd44ee55ff6600112233445566778899aabbccddeeff00112233"),
    ]
}

fn compare_modulus<M: Modulus>(name: &str, reference: &oracle::Modulus) {
    assert_eq!(M::M, reference.m, "{name} modulus");
    assert_eq!(M::C, reference.c, "{name} 2^256 - m");
    let raw = edge_values(&M::M, &M::C);
    // reduce: every edge, plus inputs at and above the modulus.
    let mut unreduced = raw.clone();
    unreduced.extend([M::M, M::M.adc(&U256::ONE).0, U256([u64::MAX; 4])]);
    for x in &unreduced {
        assert_eq!(M::reduce(x), reference.reduce(*x), "{name} reduce {x:?}");
        for y in &unreduced {
            let wide = x.mul_wide(y);
            assert_eq!(
                M::reduce_wide(&wide),
                reference.reduce_wide(wide),
                "{name} reduce_wide {x:?}·{y:?}"
            );
        }
    }
    let vals: Vec<U256> = raw.iter().map(M::reduce).collect();
    for a in &vals {
        assert_eq!(M::neg(a), reference.neg(a), "{name} neg {a:?}");
        assert_eq!(M::sq(a), reference.sq(a), "{name} sq {a:?}");
        assert_eq!(M::inv(a), reference.inv(a), "{name} inv {a:?}");
        for b in &vals {
            assert_eq!(M::add(a, b), reference.add(a, b), "{name} add {a:?} {b:?}");
            assert_eq!(M::sub(a, b), reference.sub(a, b), "{name} sub {a:?} {b:?}");
            assert_eq!(M::mul(a, b), reference.mul(a, b), "{name} mul {a:?} {b:?}");
        }
    }
}

#[test]
fn field_and_scalar_edge_cases_match_oracle() {
    compare_modulus::<Fp>("Fp", &oracle::fp());
    compare_modulus::<Scalar>("Scalar", &oracle::fn_order());
    for a in edge_values(&N, &Scalar::C).iter().map(Scalar::reduce) {
        assert_eq!(Scalar::inv_vartime(&a), oracle::fn_order().inv(&a), "inv_vartime {a:?}");
    }
}

fn compare_random<M: Modulus>(
    name: &str,
    reference: &oracle::Modulus,
    a: &U256,
    b: &U256,
    e: &U256,
) {
    let (a, b) = (reference.reduce(*a), reference.reduce(*b));
    assert_eq!(M::mul(&a, &b), reference.mul(&a, &b), "{name} mul");
    assert_eq!(M::sq(&a), reference.sq(&a), "{name} sq");
    assert_eq!(M::add(&a, &b), reference.add(&a, &b), "{name} add");
    assert_eq!(M::sub(&a, &b), reference.sub(&a, &b), "{name} sub");
    assert_eq!(M::pow(&a, e), reference.pow(&a, e), "{name} pow");
}

/// Random operands against the oracle, for both moduli and both scalar
/// multiplications.
fn random_ops_case(g: &mut Gen) {
    let [a, b, e] = [(); 3].map(|_| U256::from_be_bytes(&g.array32()));
    compare_random::<Fp>("Fp", &oracle::fp(), &a, &b, &e);
    compare_random::<Scalar>("Scalar", &oracle::fn_order(), &a, &b, &e);
    let s = Scalar::reduce(&a);
    assert_eq!(Scalar::inv_vartime(&s), oracle::fn_order().inv(&s), "inv_vartime");
    let k = Scalar::reduce(&b);
    let want = oracle::mul_generator(&k).to_affine();
    assert_eq!(mul_generator(&k).to_affine(), want, "fixed-base k·G");
    assert_eq!(Affine::generator().to_jacobian().mul_vartime(&k).to_affine(), want, "wNAF k·G");
}

#[test]
fn seeded_field_ops_against_oracle() {
    run_cases("differential field ops", 32, random_ops_case);
}

/// The long sweep: thousands of seeded signing/verification comparisons
/// and field operations. Release mode takes a few seconds; debug mode
/// minutes.
#[test]
#[ignore = "long sweep; run in release with --include-ignored"]
fn long_seeded_sweep_against_oracle() {
    run_cases("differential crypto sweep", 2_000, differential_case);
    run_cases("differential field ops sweep", 5_000, random_ops_case);
}
