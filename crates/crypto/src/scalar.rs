//! The secp256k1 scalar field (integers mod the group order `n`) and the
//! ECDSA scalar helpers: conversion of message digests into scalars and
//! deterministic nonce generation (RFC 6979 flavour).
//!
//! `n = 2^256 - N_C` with `N_C` 129 bits wide, so [`Scalar::reduce_wide`]
//! folds `hi·N_C` three times (512 -> 386 -> 260 -> 257 bits) and ends
//! with one conditional subtraction.

use crate::digest::Digest;
use crate::hmac::hmac_sha256;
use crate::u256::{Modulus, U256};

/// secp256k1 group order `n`.
pub const N: U256 = U256([
    0xbfd2_5e8c_d036_4141,
    0xbaae_dce6_af48_a03b,
    0xffff_ffff_ffff_fffe,
    0xffff_ffff_ffff_ffff,
]);

/// `floor(n / 2)`: the low-s bound.
pub const HALF_N: U256 = U256([
    0xdfe9_2f46_681b_20a0,
    0x5d57_6e73_57a4_501d,
    0xffff_ffff_ffff_ffff,
    0x7fff_ffff_ffff_ffff,
]);

/// A cube root of unity mod n with `LAMBDA·(x, y) = (BETA·x, y)` for
/// every point (the secp256k1 endomorphism; [`crate::field::BETA`]).
pub const LAMBDA: U256 = U256([
    0xdf02_967c_1b23_bd72,
    0x122e_22ea_2081_6678,
    0xa526_1c02_8812_645a,
    0x5363_ad4c_c05c_30e0,
]);

/// GLV decomposition constants for [`split_lambda`]: `G1`, `G2` are
/// `round(2^384·b2/n)` and `round(2^384·(-b1)/n)` for the short lattice
/// basis `(a1, b1)`, `(a2, b2)` of `{(x, y) : x + y·LAMBDA ≡ 0 (mod n)}`;
/// `MINUS_B1`, `MINUS_B2` are `-b1`, `-b2` mod n.
const G1: U256 = U256([
    0xe893_209a_45db_b031,
    0x3daa_8a14_71e8_ca7f,
    0xe86c_90e4_9284_eb15,
    0x3086_d221_a7d4_6bcd,
]);
const G2: U256 = U256([
    0x1571_b4ae_8ac4_7f71,
    0x2212_08ac_9df5_06c6,
    0x6f54_7fa9_0abf_e4c4,
    0xe443_7ed6_010e_8828,
]);
const MINUS_B1: U256 = U256([0x6f54_7fa9_0abf_e4c3, 0xe443_7ed6_010e_8828, 0, 0]);
const MINUS_B2: U256 = U256([
    0xd765_cda8_3db1_562c,
    0x8a28_0ac5_0774_346d,
    0xffff_ffff_ffff_fffe,
    0xffff_ffff_ffff_ffff,
]);

/// `2^256 - n`, little-endian limbs.
const N_C: [u64; 3] = [0x402d_a173_2fc9_bebf, 0x4551_2319_50b7_5fc4, 1];

/// Arithmetic mod `n` (see [`Modulus`]).
pub struct Scalar;

/// `lo + hi·N_C` as eight limbs. Every loop bound depends only on the
/// slice lengths, which are fixed per call site, never on the values.
#[inline]
fn fold(lo: &[u64], hi: &[u64]) -> [u64; 8] {
    let mut out = [0u64; 8];
    out[..lo.len()].copy_from_slice(lo);
    for (i, &h) in hi.iter().enumerate() {
        let mut carry: u128 = 0;
        for (j, &c) in N_C.iter().enumerate() {
            let acc = out[i + j] as u128 + (h as u128) * (c as u128) + carry;
            out[i + j] = acc as u64;
            carry = acc >> 64;
        }
        for limb in &mut out[i + N_C.len()..] {
            let acc = *limb as u128 + carry;
            *limb = acc as u64;
            carry = acc >> 64;
        }
    }
    out
}

impl Scalar {
    /// Inverse by the binary extended Euclidean algorithm, several times
    /// faster than [`Modulus::inv`]. Its steps follow the value, so it
    /// is for public inputs only (the `s` of a signature being
    /// verified). None for zero.
    pub fn inv_vartime(a: &U256) -> Option<U256> {
        let a = Self::reduce(a);
        if a.is_zero() {
            return None;
        }
        // Invariant: x1·a ≡ u and x2·a ≡ v (mod n). gcd(u, v) stays 1,
        // so u == v only once both are 1.
        let (mut u, mut v) = (a, N);
        let (mut x1, mut x2) = (U256::ONE, U256::ZERO);
        while u != U256::ONE && v != U256::ONE {
            while u.0[0] & 1 == 0 {
                u = u.shr1(false);
                x1 = Self::half(&x1);
            }
            while v.0[0] & 1 == 0 {
                v = v.shr1(false);
                x2 = Self::half(&x2);
            }
            if u.ge(&v) {
                u = u.sbb(&v).0;
                x1 = Self::sub(&x1, &x2);
            } else {
                v = v.sbb(&u).0;
                x2 = Self::sub(&x2, &x1);
            }
        }
        Some(if u == U256::ONE { x1 } else { x2 })
    }
}

/// `round(k·g / 2^384)`.
fn mul_shift_384(k: &U256, g: &U256) -> U256 {
    let w = k.mul_wide(g);
    U256([w[6], w[7], 0, 0]).adc(&U256::from_u64(w[5] >> 63)).0
}

/// Split a scalar for the GLV endomorphism: returns `[(k1, neg1), (k2,
/// neg2)]` with `k ≡ ±k1 ± k2·LAMBDA (mod n)`, the sign negative where
/// the flag is set, and `k1, k2 < 2^128`. Variable time: public scalars
/// only.
pub(crate) fn split_lambda(k: &U256) -> [(U256, bool); 2] {
    let c1 = Scalar::mul(&mul_shift_384(k, &G1), &MINUS_B1);
    let c2 = Scalar::mul(&mul_shift_384(k, &G2), &MINUS_B2);
    let k2 = Scalar::add(&c1, &c2);
    let k1 = Scalar::sub(k, &Scalar::mul(&k2, &LAMBDA));
    [k1, k2].map(|x| if HALF_N.lt(&x) { (Scalar::neg(&x), true) } else { (x, false) })
}

impl Modulus for Scalar {
    const M: U256 = N;
    const C: U256 = U256([N_C[0], N_C[1], N_C[2], 0]);

    #[inline]
    fn reduce_wide(w: &[u64; 8]) -> U256 {
        // 2^512 -> below 2^386 (hi < 2^130: three limbs).
        let a = fold(&w[..4], &w[4..]);
        // -> below 2^260 (hi < 2^4: one limb).
        let b = fold(&a[..4], &a[4..7]);
        // -> below 2^256 + 2^133: c[4] is the only bit left over 2^256.
        let c = fold(&b[..4], &b[4..5]);
        // The value is below 2n, so subtract n at most once.
        let lo = U256([c[0], c[1], c[2], c[3]]);
        let (d, borrow) = lo.sbb(&N);
        U256::select((c[4] != 0) | !borrow, &d, &lo)
    }
}

/// Interpret a 32-byte message digest as a scalar mod n (the standard
/// "bits2int then reduce" step of ECDSA).
pub fn digest_to_scalar(d: &Digest) -> U256 {
    Scalar::reduce(&U256::from_be_bytes(&d.0))
}

/// Deterministic nonce derivation in the spirit of RFC 6979: an
/// HMAC-SHA256 DRBG keyed by the secret key and message digest, iterated
/// until it yields a nonzero scalar below n.
///
/// Determinism matters for reproducibility: a ledger replayed from the same
/// journals re-derives byte-identical signatures, so audit fixtures are
/// stable across runs.
pub fn deterministic_nonce(secret: &U256, msg_digest: &Digest) -> U256 {
    let mut v = [0x01u8; 32];
    let mut k = [0x00u8; 32];
    let sk_bytes = secret.to_be_bytes();

    // K = HMAC(K, V || 0x00 || sk || digest)
    let mut data = Vec::with_capacity(32 + 1 + 32 + 32);
    data.extend_from_slice(&v);
    data.push(0x00);
    data.extend_from_slice(&sk_bytes);
    data.extend_from_slice(&msg_digest.0);
    k = hmac_sha256(&k, &data);
    v = hmac_sha256(&k, &v);

    // K = HMAC(K, V || 0x01 || sk || digest)
    let mut data = Vec::with_capacity(32 + 1 + 32 + 32);
    data.extend_from_slice(&v);
    data.push(0x01);
    data.extend_from_slice(&sk_bytes);
    data.extend_from_slice(&msg_digest.0);
    k = hmac_sha256(&k, &data);
    v = hmac_sha256(&k, &v);

    loop {
        v = hmac_sha256(&k, &v);
        let candidate = U256::from_be_bytes(&v);
        if !candidate.is_zero() && candidate.lt(&N) {
            return candidate;
        }
        // K = HMAC(K, V || 0x00); V = HMAC(K, V) and retry.
        let mut data = Vec::with_capacity(33);
        data.extend_from_slice(&v);
        data.push(0x00);
        k = hmac_sha256(&k, &data);
        v = hmac_sha256(&k, &v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256;

    #[test]
    fn nonce_is_deterministic() {
        let sk = U256::from_u64(424242);
        let d = sha256(b"message");
        assert_eq!(deterministic_nonce(&sk, &d), deterministic_nonce(&sk, &d));
    }

    #[test]
    fn nonce_differs_per_message_and_key() {
        let sk = U256::from_u64(424242);
        let d1 = sha256(b"m1");
        let d2 = sha256(b"m2");
        assert_ne!(deterministic_nonce(&sk, &d1), deterministic_nonce(&sk, &d2));
        let sk2 = U256::from_u64(424243);
        assert_ne!(deterministic_nonce(&sk, &d1), deterministic_nonce(&sk2, &d1));
    }

    #[test]
    fn nonce_in_range() {
        for i in 1..20u64 {
            let nonce = deterministic_nonce(&U256::from_u64(i), &sha256(&i.to_be_bytes()));
            assert!(!nonce.is_zero());
            assert!(nonce.lt(&N));
        }
    }

    #[test]
    fn digest_to_scalar_reduces() {
        let max = Digest([0xff; 32]);
        let s = digest_to_scalar(&max);
        assert!(s.lt(&N));
    }

    fn hex(s: &str) -> U256 {
        U256::from_hex(s).unwrap()
    }

    #[test]
    fn constants_match_published_hex() {
        assert_eq!(N, hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"));
        assert_eq!(N.adc(&Scalar::C), (U256::ZERO, true), "C = 2^256 - n");
        let n_minus_1 = N.sbb(&U256::ONE).0;
        let mut halved = n_minus_1.0;
        for i in 0..4 {
            halved[i] = (halved[i] >> 1) | halved.get(i + 1).map_or(0, |h| h << 63);
        }
        assert_eq!(HALF_N, U256(halved));
    }

    #[test]
    fn mul_matches_small_values() {
        let a = U256::from_u64(123_456_789);
        let b = U256::from_u64(987_654_321);
        assert_eq!(Scalar::mul(&a, &b), U256::from_u64(123_456_789 * 987_654_321));
    }

    #[test]
    fn max_product_and_inverse() {
        let n_minus_1 = N.sbb(&U256::ONE).0;
        assert_eq!(Scalar::mul(&n_minus_1, &n_minus_1), U256::ONE);
        assert_eq!(Scalar::sq(&n_minus_1), U256::ONE);
        // 2^256 - 1 squared exercises every fold at its widest.
        let max = U256([u64::MAX; 4]);
        assert_eq!(
            Scalar::reduce_wide(&max.mul_wide(&max)),
            Scalar::sq(&Scalar::C.sbb(&U256::ONE).0)
        );
        let a = hex("7f3c2a1b5d4e6f708192a3b4c5d6e7f8091a2b3c4d5e6f708192a3b4c5d6e7f8");
        assert_eq!(Scalar::mul(&a, &Scalar::inv(&a).unwrap()), U256::ONE);
        assert!(Scalar::inv(&U256::ZERO).is_none());
    }

    #[test]
    fn neg_round_trip() {
        let a = U256::from_u64(42);
        assert_eq!(Scalar::add(&a, &Scalar::neg(&a)), U256::ZERO);
        assert_eq!(Scalar::neg(&U256::ZERO), U256::ZERO);
    }

    #[test]
    fn vartime_inverse_matches_fermat() {
        let mut x = hex("7f3c2a1b5d4e6f708192a3b4c5d6e7f8091a2b3c4d5e6f708192a3b4c5d6e7f8");
        for edge in [U256::ONE, U256::from_u64(2), N.sbb(&U256::ONE).0, HALF_N] {
            assert_eq!(Scalar::inv_vartime(&edge), Scalar::inv(&edge));
        }
        for _ in 0..64 {
            assert_eq!(Scalar::inv_vartime(&x), Scalar::inv(&x));
            x = Scalar::sq(&Scalar::add(&x, &LAMBDA));
        }
        assert!(Scalar::inv_vartime(&U256::ZERO).is_none());
        assert!(Scalar::inv_vartime(&N).is_none(), "n reduces to zero");
    }

    #[test]
    fn lambda_split_recomposes_into_short_halves() {
        assert_eq!(Scalar::mul(&Scalar::sq(&LAMBDA), &LAMBDA), U256::ONE, "LAMBDA^3 = 1");
        let signed = |(x, neg): (U256, bool)| if neg { Scalar::neg(&x) } else { x };
        let mut k = hex("f0e1d2c3b4a5968778695a4b3c2d1e0fdeadbeefcafebabe0123456789abcdef");
        let edges = [U256::ZERO, U256::ONE, N.sbb(&U256::ONE).0, HALF_N, LAMBDA, G1];
        for i in 0..200 {
            let probe = edges.get(i).copied().unwrap_or(k);
            let [a, b] = split_lambda(&probe);
            assert!(
                a.0 .0[2] == 0 && a.0 .0[3] == 0 && b.0 .0[2] == 0 && b.0 .0[3] == 0,
                "{probe:?}"
            );
            assert_eq!(Scalar::add(&signed(a), &Scalar::mul(&signed(b), &LAMBDA)), probe);
            k = Scalar::mul(&k, &G2);
        }
    }
}
