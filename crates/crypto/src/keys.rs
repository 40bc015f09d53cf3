//! Key pairs for ledger participants (users, LSP, TSA, regulator, DBA).

use crate::digest::Digest;
use crate::ecdsa::{sign, verify, Signature};
use crate::point::{Affine, Jacobian};
use crate::scalar::N;
use crate::sha256::sha256;
use crate::u256::U256;

/// A secret scalar in `[1, n)`.
#[derive(Clone, Copy)]
pub struct SecretKey(pub U256);

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretKey(<redacted>)")
    }
}

/// A public key: an affine curve point plus its cached 64-byte encoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublicKey {
    point: Affine,
    encoded: [u8; 64],
}

impl PublicKey {
    fn from_point(point: Affine) -> Self {
        let encoded = match point {
            Affine::Point { x, y } => {
                let mut out = [0u8; 64];
                out[..32].copy_from_slice(&x.to_be_bytes());
                out[32..].copy_from_slice(&y.to_be_bytes());
                out
            }
            Affine::Infinity => [0u8; 64],
        };
        PublicKey { point, encoded }
    }

    /// The underlying curve point.
    pub fn point(&self) -> Affine {
        self.point
    }

    /// Uncompressed 64-byte `x || y` encoding.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.encoded
    }

    /// Parse from 64 bytes, validating the curve equation.
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<PublicKey> {
        let x = U256::from_be_bytes(bytes[..32].try_into().unwrap());
        let y = U256::from_be_bytes(bytes[32..].try_into().unwrap());
        let point = Affine::Point { x, y };
        if !point.is_on_curve() {
            return None;
        }
        Some(PublicKey::from_point(point))
    }

    /// Stable identity digest of this key (used as member id).
    pub fn id(&self) -> Digest {
        sha256(&self.encoded)
    }

    /// Verify `sig` over `msg_digest` under this key.
    pub fn verify(&self, msg_digest: &Digest, sig: &Signature) -> bool {
        verify(&self.point, msg_digest, sig)
    }
}

impl std::hash::Hash for PublicKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.encoded.hash(state);
    }
}

/// A secret/public key pair.
#[derive(Clone, Debug)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Derive a key pair deterministically from a seed (iterated SHA-256
    /// until the scalar lands in `[1, n)`). Deterministic derivation keeps
    /// tests, examples and benches reproducible.
    pub fn from_seed(seed: &[u8]) -> KeyPair {
        let mut candidate = sha256(seed);
        loop {
            let sk = U256::from_be_bytes(&candidate.0);
            if !sk.is_zero() && sk.lt(&N) {
                return Self::from_secret(SecretKey(sk));
            }
            candidate = sha256(candidate.as_bytes());
        }
    }

    /// Generate from OS randomness via the caller-provided entropy bytes.
    pub fn from_entropy(entropy: &[u8; 32]) -> KeyPair {
        Self::from_seed(entropy)
    }

    /// Build from an existing secret scalar.
    pub fn from_secret(secret: SecretKey) -> KeyPair {
        let point = Jacobian::from_generator_mul(&secret.0).to_affine();
        KeyPair { secret, public: PublicKey::from_point(point) }
    }

    pub fn secret(&self) -> &SecretKey {
        &self.secret
    }

    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Sign a message digest.
    pub fn sign(&self, msg_digest: &Digest) -> Signature {
        sign(&self.secret.0, msg_digest)
    }
}

impl Jacobian {
    /// `k·G` helper so callers need not materialize the generator; uses
    /// the fixed-base window table.
    pub fn from_generator_mul(k: &U256) -> Jacobian {
        crate::point::mul_generator(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_deterministic() {
        let a = KeyPair::from_seed(b"seed");
        let b = KeyPair::from_seed(b"seed");
        assert_eq!(a.public(), b.public());
    }

    #[test]
    fn different_seeds_different_keys() {
        assert_ne!(
            KeyPair::from_seed(b"s1").public(),
            KeyPair::from_seed(b"s2").public()
        );
    }

    #[test]
    fn public_key_round_trip() {
        let kp = KeyPair::from_seed(b"rt");
        let pk = PublicKey::from_bytes(&kp.public().to_bytes()).unwrap();
        assert_eq!(&pk, kp.public());
    }

    #[test]
    fn from_bytes_rejects_off_curve() {
        let mut bytes = KeyPair::from_seed(b"x").public().to_bytes();
        bytes[5] ^= 0xff;
        assert!(PublicKey::from_bytes(&bytes).is_none());
    }

    #[test]
    fn keypair_sign_verify() {
        let kp = KeyPair::from_seed(b"signer");
        let msg = sha256(b"receipt");
        let sig = kp.sign(&msg);
        assert!(kp.public().verify(&msg, &sig));
    }

    #[test]
    fn key_id_is_stable_and_unique() {
        let a = KeyPair::from_seed(b"a");
        let b = KeyPair::from_seed(b"b");
        assert_eq!(a.public().id(), a.public().id());
        assert_ne!(a.public().id(), b.public().id());
    }
}
