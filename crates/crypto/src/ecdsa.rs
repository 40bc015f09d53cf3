//! Deterministic ECDSA over secp256k1.
//!
//! Signatures are the non-repudiation primitive of the paper's *who*
//! dimension (§III-C): clients sign request hashes (π_c), the LSP signs
//! receipts (π_s) and the TSA signs digest-timestamp pairs (π_t).

use crate::digest::Digest;
use crate::field::{Fp, P};
use crate::point::{mul_generator, Affine, Jacobian};
use crate::scalar::{deterministic_nonce, digest_to_scalar, Scalar, HALF_N, N};
use crate::u256::{Modulus, U256};

/// An ECDSA signature `(r, s)` with low-s normalization.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    pub r: U256,
    pub s: U256,
}

impl Signature {
    /// Serialize as 64 bytes (r || s, big-endian).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r.to_be_bytes());
        out[32..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parse from 64 bytes; rejects out-of-range or zero components.
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<Signature> {
        let r = U256::from_be_bytes(bytes[..32].try_into().unwrap());
        let s = U256::from_be_bytes(bytes[32..].try_into().unwrap());
        if r.is_zero() || s.is_zero() || r.ge(&N) || s.ge(&N) {
            return None;
        }
        Some(Signature { r, s })
    }
}

/// Sign a 32-byte message digest with secret scalar `sk`.
///
/// The nonce is derived deterministically (RFC 6979 flavour) so repeated
/// signing of the same journal yields identical receipts. `k·G` walks
/// the fixed-base table, never the variable-time wNAF path.
pub fn sign(sk: &U256, msg_digest: &Digest) -> Signature {
    let z = digest_to_scalar(msg_digest);
    let mut nonce_digest = *msg_digest;
    loop {
        let k = deterministic_nonce(sk, &nonce_digest);
        let Affine::Point { x, .. } = mul_generator(&k).to_affine() else {
            // k·G = infinity cannot occur for 0 < k < n, but stay total.
            nonce_digest = crate::sha256(nonce_digest.as_bytes());
            continue;
        };
        // r = R.x mod n.
        let r = Scalar::reduce(&x);
        if r.is_zero() {
            nonce_digest = crate::sha256(nonce_digest.as_bytes());
            continue;
        }
        let k_inv = Scalar::inv(&k).expect("nonzero nonce");
        let rd = Scalar::mul(&r, sk);
        let mut s = Scalar::mul(&k_inv, &Scalar::add(&z, &rd));
        if s.is_zero() {
            nonce_digest = crate::sha256(nonce_digest.as_bytes());
            continue;
        }
        // Low-s normalization (reject malleable twin).
        if HALF_N.lt(&s) {
            s = Scalar::neg(&s);
        }
        return Signature { r, s };
    }
}

/// Verify a signature over `msg_digest` against public point `pk`.
///
/// Everything here is public, so the variable-time routines apply:
/// `s⁻¹` by binary inversion, `R = u1·G + u2·Q` with `u1·G` from the
/// fixed-base table and `u2·Q` by wNAF, and `R.x mod n = r` is checked
/// without leaving Jacobian coordinates ([`x_matches_r`]).
pub fn verify(pk: &Affine, msg_digest: &Digest, sig: &Signature) -> bool {
    crate::counters::ECDSA_VERIFIES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    if sig.r.is_zero() || sig.s.is_zero() || sig.r.ge(&N) || sig.s.ge(&N) {
        return false;
    }
    if matches!(pk, Affine::Infinity) || !pk.is_on_curve() {
        return false;
    }
    let z = digest_to_scalar(msg_digest);
    let s_inv = Scalar::inv_vartime(&sig.s).expect("s checked nonzero");
    let u1 = Scalar::mul(&z, &s_inv);
    let u2 = Scalar::mul(&sig.r, &s_inv);
    let r_point = mul_generator(&u1).add(&pk.to_jacobian().mul_vartime(&u2));
    x_matches_r(&r_point, &sig.r)
}

/// Does the affine x-coordinate of `point`, reduced mod n, equal `r`
/// (with `0 < r < n`)? Infinity never matches.
///
/// Tests `X == r·Z²` instead of inverting Z. Since `x < p < 2n`,
/// `x mod n = r` also holds when `x = r + n`, which is possible only
/// while `r + n < p` (about one `r` in 2^128).
pub fn x_matches_r(point: &Jacobian, r: &U256) -> bool {
    if point.is_infinity() {
        return false;
    }
    let zz = Fp::sq(&point.z);
    if Fp::mul(r, &zz) == point.x {
        return true;
    }
    let (r_plus_n, carry) = r.adc(&N);
    !carry && r_plus_n.lt(&P) && Fp::mul(&r_plus_n, &zz) == point.x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use crate::sha256;

    #[test]
    fn sign_verify_round_trip() {
        let kp = KeyPair::from_seed(b"alice");
        let msg = sha256(b"append journal 1");
        let sig = sign(&kp.secret().0, &msg);
        assert!(verify(&kp.public().point(), &msg, &sig));
    }

    #[test]
    fn wrong_message_fails() {
        let kp = KeyPair::from_seed(b"alice");
        let sig = sign(&kp.secret().0, &sha256(b"m1"));
        assert!(!verify(&kp.public().point(), &sha256(b"m2"), &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let alice = KeyPair::from_seed(b"alice");
        let bob = KeyPair::from_seed(b"bob");
        let msg = sha256(b"payload");
        let sig = sign(&alice.secret().0, &msg);
        assert!(!verify(&bob.public().point(), &msg, &sig));
    }

    #[test]
    fn signature_is_deterministic() {
        let kp = KeyPair::from_seed(b"carol");
        let msg = sha256(b"same message");
        assert_eq!(sign(&kp.secret().0, &msg), sign(&kp.secret().0, &msg));
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = KeyPair::from_seed(b"dave");
        let msg = sha256(b"msg");
        let sig = sign(&kp.secret().0, &msg);
        let mut bytes = sig.to_bytes();
        bytes[10] ^= 0x01;
        if let Some(bad) = Signature::from_bytes(&bytes) {
            assert!(!verify(&kp.public().point(), &msg, &bad));
        }
    }

    #[test]
    fn serde_round_trip() {
        let kp = KeyPair::from_seed(b"erin");
        let sig = sign(&kp.secret().0, &sha256(b"x"));
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(sig, parsed);
    }

    #[test]
    fn rejects_zero_components() {
        let mut bytes = [0u8; 64];
        assert!(Signature::from_bytes(&bytes).is_none());
        bytes[63] = 1; // r = 0, s = 1
        assert!(Signature::from_bytes(&bytes).is_none());
    }

    #[test]
    fn verify_rejects_infinity_pk() {
        let kp = KeyPair::from_seed(b"frank");
        let msg = sha256(b"msg");
        let sig = sign(&kp.secret().0, &msg);
        assert!(!verify(&Affine::Infinity, &msg, &sig));
    }
}
