//! 256-bit unsigned integers and the modular-arithmetic interface shared
//! by the secp256k1 base field ([`crate::field::Fp`]) and scalar field
//! ([`crate::scalar::Scalar`]).

/// A 256-bit unsigned integer stored as four little-endian u64 limbs.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct U256(pub [u64; 4]);

impl std::fmt::Debug for U256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "U256(0x{:016x}{:016x}{:016x}{:016x})",
            self.0[3], self.0[2], self.0[1], self.0[0]
        )
    }
}

impl U256 {
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    pub const ONE: U256 = U256([1, 0, 0, 0]);

    /// Construct from a small integer.
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Parse from 32 big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[3 - i] = u64::from_be_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        }
        U256(limbs)
    }

    /// Serialize to 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&self.0[3 - i].to_be_bytes());
        }
        out
    }

    /// Parse from a big-endian hex string (up to 64 chars, no 0x prefix).
    pub fn from_hex(hex: &str) -> Option<Self> {
        if hex.is_empty() || hex.len() > 64 {
            return None;
        }
        let padded = format!("{hex:0>64}");
        let mut bytes = [0u8; 32];
        for (i, chunk) in padded.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            bytes[i] = ((hi << 4) | lo) as u8;
        }
        Some(Self::from_be_bytes(&bytes))
    }

    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Test bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Index of the highest set bit, or None if zero.
    pub fn highest_bit(&self) -> Option<usize> {
        for limb in (0..4).rev() {
            if self.0[limb] != 0 {
                return Some(limb * 64 + 63 - self.0[limb].leading_zeros() as usize);
            }
        }
        None
    }

    /// `self < other`.
    pub fn lt(&self, other: &U256) -> bool {
        self.sbb(other).1
    }

    /// `self >= other`.
    pub fn ge(&self, other: &U256) -> bool {
        !self.lt(other)
    }

    /// Wrapping addition; returns (sum, carry).
    #[allow(clippy::needless_range_loop)] // limb indices pair two arrays
    pub fn adc(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for i in 0..4 {
            let (s1, c1) = self.0[i].overflowing_add(other.0[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 | c2;
        }
        (U256(out), carry)
    }

    /// Wrapping subtraction; returns (difference, borrow).
    #[allow(clippy::needless_range_loop)] // limb indices pair two arrays
    pub fn sbb(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for i in 0..4 {
            let (d1, b1) = self.0[i].overflowing_sub(other.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 | b2;
        }
        (U256(out), borrow)
    }

    /// `if cond { a } else { b }` by masking. The compiler may still
    /// emit a branch, which is what a rarely-taken condition wants.
    #[inline]
    pub fn select(cond: bool, a: &U256, b: &U256) -> U256 {
        let mask = (cond as u64).wrapping_neg();
        U256(std::array::from_fn(|i| b.0[i] ^ ((a.0[i] ^ b.0[i]) & mask)))
    }

    /// [`U256::select`] for conditions set about half the time (the
    /// carries of modular addition and subtraction): as a branch they
    /// would mispredict that often, so each limb goes through
    /// `std::hint::select_unpredictable`, which asks for a conditional
    /// move instead.
    #[inline]
    pub fn select_unpredictable(cond: bool, a: &U256, b: &U256) -> U256 {
        U256(std::array::from_fn(|i| std::hint::select_unpredictable(cond, a.0[i], b.0[i])))
    }

    /// `(top·2^256 + self) >> 1`.
    #[inline]
    pub fn shr1(&self, top: bool) -> U256 {
        let l = &self.0;
        U256([
            (l[0] >> 1) | (l[1] << 63),
            (l[1] >> 1) | (l[2] << 63),
            (l[2] >> 1) | (l[3] << 63),
            (l[3] >> 1) | ((top as u64) << 63),
        ])
    }

    /// Full 256x256 -> 512-bit schoolbook product, little-endian limbs.
    #[inline]
    pub fn mul_wide(&self, other: &U256) -> [u64; 8] {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let acc = out[i + j] as u128 + (self.0[i] as u128) * (other.0[j] as u128) + carry;
                out[i + j] = acc as u64;
                carry = acc >> 64;
            }
            out[i + 4] = carry as u64;
        }
        out
    }

    /// 512-bit square: the six cross products once, doubled, plus the
    /// four diagonal squares (10 limb products instead of 16).
    #[inline]
    pub fn sqr_wide(&self) -> [u64; 8] {
        let a = &self.0;
        let mut out = [0u64; 8];
        for i in 0..3 {
            let mut carry: u128 = 0;
            for j in i + 1..4 {
                let acc = out[i + j] as u128 + (a[i] as u128) * (a[j] as u128) + carry;
                out[i + j] = acc as u64;
                carry = acc >> 64;
            }
            out[i + 4] = carry as u64;
        }
        // The cross sum is below 2^511, so doubling cannot overflow.
        let mut top = 0u64;
        for limb in out.iter_mut() {
            let next = *limb >> 63;
            *limb = (*limb << 1) | top;
            top = next;
        }
        let mut carry: u128 = 0;
        for i in 0..4 {
            let sq = (a[i] as u128) * (a[i] as u128);
            let lo = out[2 * i] as u128 + (sq as u64) as u128 + carry;
            out[2 * i] = lo as u64;
            let hi = out[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
            out[2 * i + 1] = hi as u64;
            carry = hi >> 64;
        }
        out
    }
}

/// Arithmetic modulo a prime `M = 2^256 - C` with `C < 2^129`, which
/// holds for both secp256k1 moduli. Operands and results are `U256`s in
/// `[0, M)`, except that [`Modulus::reduce`] accepts any 256-bit value
/// and [`Modulus::reduce_wide`] any 512-bit one.
///
/// Addition, subtraction and exponentiation are shared; each modulus
/// supplies its own reduction of a 512-bit product, which is where the
/// two differ in cost.
pub trait Modulus {
    /// The modulus.
    const M: U256;
    /// `2^256 - M`, i.e. `2^256 mod M`.
    const C: U256;

    /// Reduce a 512-bit value (little-endian limbs) mod `M`.
    fn reduce_wide(w: &[u64; 8]) -> U256;

    /// Reduce any 256-bit value mod `M`: one conditional subtraction
    /// suffices because `M > 2^255`.
    #[inline]
    fn reduce(x: &U256) -> U256 {
        let (d, borrow) = x.sbb(&Self::M);
        U256::select(borrow, x, &d)
    }

    #[inline]
    fn add(a: &U256, b: &U256) -> U256 {
        // `sum + C` is `sum - M` mod 2^256, and the true sum is at least
        // M exactly when one of the two additions carries.
        let (sum, carry) = a.adc(b);
        let (minus_m, wrapped) = sum.adc(&Self::C);
        U256::select_unpredictable(carry | wrapped, &minus_m, &sum)
    }

    #[inline]
    fn sub(a: &U256, b: &U256) -> U256 {
        let (diff, borrow) = a.sbb(b);
        let fix = U256::select_unpredictable(borrow, &Self::M, &U256::ZERO);
        diff.adc(&fix).0
    }

    #[inline]
    fn neg(a: &U256) -> U256 {
        Self::sub(&U256::ZERO, a)
    }

    /// `a / 2`: `a` itself when even, else `(a + M) / 2`, with the
    /// addition's carry shifted back in as the top bit.
    #[inline]
    fn half(a: &U256) -> U256 {
        let odd = a.0[0] & 1 == 1;
        let (sum, carry) = a.adc(&U256::select_unpredictable(odd, &Self::M, &U256::ZERO));
        sum.shr1(carry)
    }

    #[inline]
    fn mul(a: &U256, b: &U256) -> U256 {
        Self::reduce_wide(&a.mul_wide(b))
    }

    #[inline]
    fn sq(a: &U256) -> U256 {
        Self::reduce_wide(&a.sqr_wide())
    }

    /// `base^exp` by 4-bit fixed windows, most significant first. The
    /// window lookups follow the exponent's digits, so `exp` must be
    /// public; `base` may be secret.
    fn pow(base: &U256, exp: &U256) -> U256 {
        let mut powers = [U256::ONE; 16];
        for i in 1..16 {
            powers[i] = Self::mul(&powers[i - 1], base);
        }
        let mut result = U256::ONE;
        for window in (0..64).rev() {
            for _ in 0..4 {
                result = Self::sq(&result);
            }
            let digit = (exp.0[window / 16] >> ((window % 16) * 4)) & 0xf;
            if digit != 0 {
                result = Self::mul(&result, &powers[digit as usize]);
            }
        }
        result
    }

    /// Inverse via Fermat's little theorem (`a^(M-2)`); None for zero.
    fn inv(a: &U256) -> Option<U256> {
        if a.is_zero() {
            return None;
        }
        Some(Self::pow(a, &Self::M.sbb(&U256::from_u64(2)).0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn be_bytes_round_trip() {
        let x = U256::from_hex("deadbeef00000000000000000000000000000000000000000000000000001234")
            .unwrap();
        assert_eq!(U256::from_be_bytes(&x.to_be_bytes()), x);
    }

    #[test]
    fn sqr_wide_matches_mul_wide() {
        let mut x = U256([0x0123_4567_89ab_cdef, u64::MAX, 0, 0x8000_0000_0000_0001]);
        for _ in 0..64 {
            assert_eq!(x.sqr_wide(), x.mul_wide(&x), "x = {x:?}");
            // Walk through carry-heavy and sparse limb patterns alike.
            let w = x.mul_wide(&U256([0x9e37_79b9_7f4a_7c15, 3, u64::MAX, 1]));
            x = U256([w[1] ^ w[6], w[2], w[3] | w[7], w[4]]);
        }
        let max = U256([u64::MAX; 4]);
        assert_eq!(max.sqr_wide(), max.mul_wide(&max));
    }

    #[test]
    fn select_picks_either_operand() {
        let a = U256::from_u64(7);
        let b = U256([1, 2, 3, 4]);
        assert_eq!(U256::select(true, &a, &b), a);
        assert_eq!(U256::select(false, &a, &b), b);
        assert_eq!(U256::select_unpredictable(true, &a, &b), a);
        assert_eq!(U256::select_unpredictable(false, &a, &b), b);
    }

    #[test]
    fn lt_orders_by_most_significant_limb() {
        assert!(U256([u64::MAX, 0, 0, 0]).lt(&U256([0, 0, 0, 1])));
        assert!(!U256([0, 0, 0, 1]).lt(&U256([u64::MAX, 0, 0, 0])));
        assert!(!U256::ONE.lt(&U256::ONE));
        assert!(U256::ONE.ge(&U256::ONE));
    }
}
