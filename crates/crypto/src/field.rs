//! The secp256k1 base field Fp and the curve constants.
//!
//! `p = 2^256 - 0x1000003d1`, so a 512-bit product `hi·2^256 + lo` is
//! congruent to `lo + hi·0x1000003d1`, a multiplier of only 33 bits.
//! [`Fp::reduce_wide`] folds with it twice and finishes with one
//! conditional subtraction: 8 limb products per reduction.

use crate::u256::{Modulus, U256};

/// `2^256 - p`.
const P_C: u64 = 0x1_0000_03d1;

/// secp256k1 base field prime `p = 2^256 - 2^32 - 977`.
pub const P: U256 = U256([
    0xffff_fffe_ffff_fc2f,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
]);

/// Curve coefficient `b` in `y^2 = x^3 + 7`.
pub const B: U256 = U256::from_u64(7);

/// Generator x-coordinate.
pub const GX: U256 = U256([
    0x59f2_815b_16f8_1798,
    0x029b_fcdb_2dce_28d9,
    0x55a0_6295_ce87_0b07,
    0x79be_667e_f9dc_bbac,
]);

/// Generator y-coordinate.
pub const GY: U256 = U256([
    0x9c47_d08f_fb10_d4b8,
    0xfd17_b448_a685_5419,
    0x5da4_fbfc_0e11_08a8,
    0x483a_da77_26a3_c465,
]);

/// A cube root of unity mod p: `(x, y) -> (BETA·x, y)` maps every point
/// P to `LAMBDA·P` (see [`crate::scalar::LAMBDA`]).
pub const BETA: U256 = U256([
    0xc139_6c28_7195_01ee,
    0x9cf0_4975_12f5_8995,
    0x6e64_479e_ac34_34e9,
    0x7ae9_6a2b_657c_0710,
]);

/// Arithmetic mod `p` (see [`Modulus`]).
pub struct Fp;

impl Modulus for Fp {
    const M: U256 = P;
    const C: U256 = U256::from_u64(P_C);

    #[inline]
    fn reduce_wide(w: &[u64; 8]) -> U256 {
        // Pass 1: t = lo + hi·C < 2^256 + 2^289, so t[4] < 2^34.
        let mut t = [0u64; 5];
        let mut carry: u128 = 0;
        for i in 0..4 {
            let acc = w[i] as u128 + (w[i + 4] as u128) * (P_C as u128) + carry;
            t[i] = acc as u64;
            carry = acc >> 64;
        }
        t[4] = carry as u64;
        // Pass 2: fold t[4]·C (< 2^67) into the low 256 bits.
        let mut r = [0u64; 4];
        let mut carry = (t[4] as u128) * (P_C as u128);
        for i in 0..4 {
            let acc = t[i] as u128 + carry;
            r[i] = acc as u64;
            carry = acc >> 64;
        }
        // A carry out leaves r < 2^67, so folding it as C cannot carry.
        let r = U256(r).adc(&U256::from_u64((carry as u64) * P_C)).0;
        Self::reduce(&r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> U256 {
        U256::from_hex(s).unwrap()
    }

    #[test]
    fn constants_match_published_hex() {
        assert_eq!(P, hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"));
        assert_eq!(GX, hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"));
        assert_eq!(GY, hex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"));
        assert_eq!(P.adc(&Fp::C), (U256::ZERO, true), "C = 2^256 - p");
        assert_eq!(BETA, hex("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee"));
        assert_eq!(Fp::mul(&Fp::sq(&BETA), &BETA), U256::ONE, "BETA^3 = 1");
    }

    #[test]
    fn generator_is_on_curve() {
        let lhs = Fp::sq(&GY);
        let rhs = Fp::add(&Fp::mul(&Fp::sq(&GX), &GX), &B);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn order_is_below_prime() {
        assert!(crate::scalar::N.lt(&P));
    }

    #[test]
    fn max_product_and_inverse() {
        let p_minus_1 = P.sbb(&U256::ONE).0;
        assert_eq!(Fp::mul(&p_minus_1, &p_minus_1), U256::ONE);
        assert_eq!(Fp::sq(&p_minus_1), U256::ONE);
        let a = hex("7f3c2a1b5d4e6f708192a3b4c5d6e7f8091a2b3c4d5e6f708192a3b4c5d6e7f8");
        assert_eq!(Fp::mul(&a, &Fp::inv(&a).unwrap()), U256::ONE);
        assert!(Fp::inv(&U256::ZERO).is_none());
    }

    #[test]
    fn pow_small_cases() {
        let three = U256::from_u64(3);
        assert_eq!(Fp::pow(&three, &U256::ZERO), U256::ONE);
        assert_eq!(Fp::pow(&three, &U256::from_u64(5)), U256::from_u64(243));
    }

    #[test]
    fn add_sub_inverse() {
        let a = hex("aa11bb22cc33dd44ee55ff6600112233445566778899aabbccddeeff00112233");
        let b = hex("123456789abcdef0fedcba98765432100123456789abcdef013579bdf02468ac");
        let s = Fp::add(&a, &b);
        assert_eq!(Fp::sub(&s, &b), a);
        assert_eq!(Fp::sub(&s, &a), b);
        assert_eq!(Fp::add(&a, &Fp::neg(&a)), U256::ZERO);
        assert_eq!(Fp::neg(&U256::ZERO), U256::ZERO);
    }
}
