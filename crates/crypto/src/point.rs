//! secp256k1 group arithmetic in Jacobian coordinates.
//!
//! Two scalar multiplications cover every use:
//!
//! * [`mul_generator`] walks a fixed-base table of affine multiples of G
//!   (mixed additions, no doublings). Signing and key generation run it
//!   on secret scalars; it branches only on whether a 4-bit digit is
//!   zero, as it always has.
//! * [`Jacobian::mul_vartime`] splits the scalar in two 128-bit halves
//!   with the secp256k1 endomorphism and runs width-5 wNAF over eight
//!   odd multiples of the point and of its image. Its additions follow
//!   the scalar's digits, so it is for public scalars only (ECDSA
//!   verification).

use crate::field::{Fp, B, BETA, GX, GY};
use crate::scalar::split_lambda;
use crate::u256::{Modulus, U256};

/// An affine point on secp256k1, or the point at infinity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Affine {
    Infinity,
    Point { x: U256, y: U256 },
}

impl Affine {
    /// The standard generator G.
    pub const fn generator() -> Affine {
        Affine::Point { x: GX, y: GY }
    }

    /// Check the curve equation `y^2 = x^3 + 7` mod p. Coordinates at or
    /// above p are taken mod p.
    pub fn is_on_curve(&self) -> bool {
        match self {
            Affine::Infinity => true,
            Affine::Point { x, y } => {
                let (x, y) = (Fp::reduce(x), Fp::reduce(y));
                Fp::sq(&y) == Fp::add(&Fp::mul(&Fp::sq(&x), &x), &B)
            }
        }
    }

    /// Jacobian form with coordinates reduced mod p.
    pub fn to_jacobian(self) -> Jacobian {
        match self {
            Affine::Infinity => Jacobian::INFINITY,
            Affine::Point { x, y } => {
                Jacobian { x: Fp::reduce(&x), y: Fp::reduce(&y), z: U256::ONE }
            }
        }
    }
}

/// A point in Jacobian coordinates `(X, Y, Z)` representing
/// `(X/Z^2, Y/Z^3)`; `Z = 0` encodes infinity. Coordinates are reduced
/// mod p.
#[derive(Clone, Copy, Debug)]
pub struct Jacobian {
    pub x: U256,
    pub y: U256,
    pub z: U256,
}

impl Jacobian {
    pub const INFINITY: Jacobian = Jacobian { x: U256::ONE, y: U256::ONE, z: U256::ZERO };

    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Convert back to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> Affine {
        if self.is_infinity() {
            return Affine::Infinity;
        }
        let z_inv = Fp::inv(&self.z).expect("nonzero z");
        let z_inv2 = Fp::sq(&z_inv);
        let z_inv3 = Fp::mul(&z_inv2, &z_inv);
        Affine::Point { x: Fp::mul(&self.x, &z_inv2), y: Fp::mul(&self.y, &z_inv3) }
    }

    /// `-P`.
    pub fn neg(&self) -> Jacobian {
        Jacobian { x: self.x, y: Fp::neg(&self.y), z: self.z }
    }

    /// Point doubling (a = 0 curve; 3M + 4S, libsecp256k1's formula).
    pub fn double(&self) -> Jacobian {
        if self.is_infinity() || self.y.is_zero() {
            return Jacobian::INFINITY;
        }
        // The textbook result scaled by 1/2 (X/4, Y/8, Z/2), which trades
        // five field additions for one halving: L = 3X²/2, S = Y²,
        // T = -S·X, X3 = L² + 2T, Y3 = -(L·(X3 + T) + S²), Z3 = Y·Z.
        let s = Fp::sq(&self.y);
        let xx = Fp::sq(&self.x);
        let l = Fp::half(&Fp::add(&Fp::add(&xx, &xx), &xx));
        let t = Fp::neg(&Fp::mul(&s, &self.x));
        let x3 = Fp::add(&Fp::add(&Fp::sq(&l), &t), &t);
        let y3 = Fp::neg(&Fp::add(&Fp::mul(&Fp::add(&x3, &t), &l), &Fp::sq(&s)));
        Jacobian { x: x3, y: y3, z: Fp::mul(&self.y, &self.z) }
    }

    /// General Jacobian addition (add-2007-bl, 11M + 5S, with doubling
    /// fallback).
    pub fn add(&self, other: &Jacobian) -> Jacobian {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = Fp::sq(&self.z);
        let z2z2 = Fp::sq(&other.z);
        let u1 = Fp::mul(&self.x, &z2z2);
        let u2 = Fp::mul(&other.x, &z1z1);
        let s1 = Fp::mul(&Fp::mul(&self.y, &other.z), &z2z2);
        let s2 = Fp::mul(&Fp::mul(&other.y, &self.z), &z1z1);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Jacobian::INFINITY;
        }
        let h = Fp::sub(&u2, &u1);
        let i = Fp::sq(&Fp::add(&h, &h));
        let j = Fp::mul(&h, &i);
        let d = Fp::sub(&s2, &s1);
        let r = Fp::add(&d, &d);
        let v = Fp::mul(&u1, &i);
        let x3 = Fp::sub(&Fp::sub(&Fp::sq(&r), &j), &Fp::add(&v, &v));
        let s1j = Fp::mul(&s1, &j);
        let y3 = Fp::sub(&Fp::mul(&r, &Fp::sub(&v, &x3)), &Fp::add(&s1j, &s1j));
        let zz = Fp::sq(&Fp::add(&self.z, &other.z));
        let z3 = Fp::mul(&Fp::sub(&Fp::sub(&zz, &z1z1), &z2z2), &h);
        Jacobian { x: x3, y: y3, z: z3 }
    }

    /// Mixed addition of an affine point `(x, y)` with coordinates below
    /// p (madd-2007-bl, 8M + 3S, with doubling fallback).
    pub fn add_affine(&self, x: &U256, y: &U256) -> Jacobian {
        self.add_affine_zr(x, y).0
    }

    /// [`Jacobian::add_affine`], also returning `Z3/Z1` (zero where the
    /// sum is infinity, one where `self` was).
    fn add_affine_zr(&self, x: &U256, y: &U256) -> (Jacobian, U256) {
        if self.is_infinity() {
            return (Jacobian { x: *x, y: *y, z: U256::ONE }, U256::ONE);
        }
        let z1z1 = Fp::sq(&self.z);
        let u2 = Fp::mul(x, &z1z1);
        let s2 = Fp::mul(&Fp::mul(y, &self.z), &z1z1);
        if u2 == self.x {
            if s2 == self.y {
                return (self.double(), self.y);
            }
            return (Jacobian::INFINITY, U256::ZERO);
        }
        let h = Fp::sub(&u2, &self.x);
        let h2 = Fp::add(&h, &h);
        let i = Fp::sq(&h2);
        let j = Fp::mul(&h, &i);
        let d = Fp::sub(&s2, &self.y);
        let r = Fp::add(&d, &d);
        let v = Fp::mul(&self.x, &i);
        let x3 = Fp::sub(&Fp::sub(&Fp::sq(&r), &j), &Fp::add(&v, &v));
        let yj = Fp::mul(&self.y, &j);
        let y3 = Fp::sub(&Fp::mul(&r, &Fp::sub(&v, &x3)), &Fp::add(&yj, &yj));
        (Jacobian { x: x3, y: y3, z: Fp::mul(&self.z, &h2) }, h2)
    }

    /// `P, 3P, …, 15P` as affine points of an isomorphic curve, plus the
    /// `Z` they share on this one.
    ///
    /// `y² = x³ + 7` maps onto `y² = x³ + 7·Z⁶` by `(x, y) -> (x·Z², y·Z³)`,
    /// and the doubling and addition formulas never read the constant
    /// term, so points that share a Jacobian `Z` add as affine points of
    /// the image curve; multiplying a result's Z by the shared `Z` maps it
    /// back. Built with mixed additions of `2P` (affine on the curve
    /// scaled by its own Z), then each entry rescaled to the last one's
    /// Z. `self` must be a finite point of the curve.
    fn odd_multiples(&self) -> ([TablePoint; 8], U256) {
        let d = self.double();
        let zz = Fp::sq(&d.z);
        let mut points = [Jacobian {
            x: Fp::mul(&self.x, &zz),
            y: Fp::mul(&self.y, &Fp::mul(&zz, &d.z)),
            z: self.z,
        }; 8];
        let mut ratios = [U256::ONE; 8];
        for i in 1..8 {
            (points[i], ratios[i]) = points[i - 1].add_affine_zr(&d.x, &d.y);
        }
        let mut out = [TablePoint { x: U256::ZERO, y: U256::ZERO }; 8];
        let mut f = U256::ONE;
        for i in (0..8).rev() {
            let ff = Fp::sq(&f);
            out[i] = TablePoint {
                x: Fp::mul(&points[i].x, &ff),
                y: Fp::mul(&points[i].y, &Fp::mul(&ff, &f)),
            };
            f = Fp::mul(&f, &ratios[i]);
        }
        (out, Fp::mul(&points[7].z, &d.z))
    }

    /// `k·P` by width-5 wNAF with the GLV split: `k ≡ k1 + k2·λ`, both
    /// halves about 128 bits, so `k1·P + k2·(λP)` shares about 128
    /// doublings and adds precomputed odd multiples `P, 3P, …, 15P`
    /// ([`Jacobian::odd_multiples`], mixed additions) and their images
    /// `(BETA·x, y)` under λ. Variable time in `k`: never call it with a
    /// secret scalar. `self` must be a point of the curve.
    pub fn mul_vartime(&self, k: &U256) -> Jacobian {
        let [(k1, neg1), (k2, neg2)] = split_lambda(k);
        let (d1, d2) = (wnaf5(&k1), wnaf5(&k2));
        let top = d1.iter().rposition(|&d| d != 0).max(d2.iter().rposition(|&d| d != 0));
        let (Some(top), false) = (top, self.is_infinity()) else {
            return Jacobian::INFINITY;
        };
        let (odd, global_z) = self.odd_multiples();
        let odd_lambda_x = odd.map(|p| Fp::mul(&BETA, &p.x));
        let mut acc = Jacobian::INFINITY;
        for i in (0..=top).rev() {
            acc = acc.double();
            for (d, neg, lambda) in [(d1[i], neg1, false), (d2[i], neg2, true)] {
                if d == 0 {
                    continue;
                }
                let slot = (d.unsigned_abs() / 2) as usize;
                let x = if lambda { &odd_lambda_x[slot] } else { &odd[slot].x };
                let y = if (d < 0) != neg { Fp::neg(&odd[slot].y) } else { odd[slot].y };
                acc = acc.add_affine(x, &y);
            }
        }
        Jacobian { z: Fp::mul(&acc.z, &global_z), ..acc }
    }
}

/// Width-5 non-adjacent form of `k`: `k = Σ d_i·2^i` with every nonzero
/// `d_i` odd, `|d_i| < 16`, and at least four zeros after each one.
fn wnaf5(k: &U256) -> [i8; 257] {
    const W: usize = 5;
    let bits = |pos: usize, count: usize| -> u32 {
        (0..count).filter(|i| pos + i < 256 && k.bit(pos + i)).map(|i| 1u32 << i).sum()
    };
    let mut out = [0i8; 257];
    let mut carry = 0u32;
    let mut pos = 0;
    while pos < 257 {
        if bits(pos, 1) == carry {
            pos += 1;
            continue;
        }
        let word = bits(pos, W) + carry;
        carry = (word >> (W - 1)) & 1;
        out[pos] = (word as i32 - ((carry as i32) << W)) as i8;
        pos += W;
    }
    out
}

/// An affine table entry (never infinity).
#[derive(Clone, Copy)]
struct TablePoint {
    x: U256,
    y: U256,
}

/// The fixed-base window table: `rows[i][j-1] = (j << 4i)·G` for 4-bit
/// windows, turning generator multiplication into at most 64 mixed
/// additions with no doublings. Affine storage: 64·15 entries of 64
/// bytes (60 KiB).
fn g_table() -> &'static [[TablePoint; 15]] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Vec<[TablePoint; 15]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut rows = Vec::with_capacity(64);
        let mut base = Affine::generator().to_jacobian();
        for _ in 0..64 {
            let mut row = [Jacobian::INFINITY; 15];
            let mut acc = base;
            for slot in row.iter_mut() {
                *slot = acc;
                acc = acc.add(&base);
            }
            // One row at a time keeps the build's transient memory to a
            // row, so it adds nothing to peak RSS beyond the table.
            rows.push(row_to_affine(&row));
            base = acc; // 16·base: the next window's unit.
        }
        rows
    })
}

/// Normalize a row of finite points with one field inversion
/// (Montgomery's trick: invert the product of every Z, then peel off
/// each factor).
fn row_to_affine(row: &[Jacobian; 15]) -> [TablePoint; 15] {
    let mut prefix = [U256::ONE; 15];
    let mut acc = U256::ONE;
    for (p, slot) in row.iter().zip(prefix.iter_mut()) {
        *slot = acc;
        acc = Fp::mul(&acc, &p.z);
    }
    let mut inv = Fp::inv(&acc).expect("table points are finite");
    let mut out = [TablePoint { x: U256::ZERO, y: U256::ZERO }; 15];
    for i in (0..15).rev() {
        let z_inv = Fp::mul(&inv, &prefix[i]);
        inv = Fp::mul(&inv, &row[i].z);
        let z_inv2 = Fp::sq(&z_inv);
        out[i] = TablePoint {
            x: Fp::mul(&row[i].x, &z_inv2),
            y: Fp::mul(&row[i].y, &Fp::mul(&z_inv2, &z_inv)),
        };
    }
    out
}

/// Multiply the generator by `k` via the fixed-base table.
pub fn mul_generator(k: &U256) -> Jacobian {
    let mut acc = Jacobian::INFINITY;
    for (i, row) in g_table().iter().enumerate() {
        let digit = ((k.0[i / 16] >> ((i % 16) * 4)) & 0xf) as usize;
        if digit != 0 {
            let p = &row[digit - 1];
            acc = acc.add_affine(&p.x, &p.y);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::N;

    fn g() -> Jacobian {
        Affine::generator().to_jacobian()
    }

    #[test]
    fn double_matches_add() {
        let d = g().double().to_affine();
        let a = g().add(&g()).to_affine();
        assert_eq!(d, a);
        assert!(d.is_on_curve());
    }

    #[test]
    fn known_multiple_2g() {
        // 2G for secp256k1 (public test vector).
        let two_g = g().mul_vartime(&U256::from_u64(2)).to_affine();
        match two_g {
            Affine::Point { x, .. } => assert_eq!(
                x,
                U256::from_hex("c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5")
                    .unwrap()
            ),
            Affine::Infinity => panic!("2G must not be infinity"),
        }
    }

    #[test]
    fn scalar_mul_distributes() {
        // (a+b)G == aG + bG.
        let a = U256::from_u64(123_456);
        let b = U256::from_u64(789_012);
        let ab = U256::from_u64(123_456 + 789_012);
        let lhs = g().mul_vartime(&ab).to_affine();
        let rhs = g().mul_vartime(&a).add(&g().mul_vartime(&b)).to_affine();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn order_times_g_is_infinity() {
        assert!(g().mul_vartime(&N).is_infinity());
        assert!(mul_generator(&N).is_infinity());
    }

    #[test]
    fn wnaf_digits_recompose() {
        let k = U256::from_hex("f0e1d2c3b4a5968778695a4b3c2d1e0fdeadbeefcafebabe0123456789abcdef")
            .unwrap();
        for k in [k, U256([u64::MAX; 4]), U256::from_u64(0b1011_1101), N] {
            let digits = wnaf5(&k);
            // Recompose mod 2^256 from the top: acc = 2·acc + d.
            let mut acc = U256::ZERO;
            for &d in digits.iter().rev() {
                acc = acc.adc(&acc).0;
                let m = U256::from_u64(d.unsigned_abs() as u64);
                acc = if d >= 0 { acc.adc(&m).0 } else { acc.sbb(&m).0 };
            }
            assert_eq!(acc, k);
            for (i, &d) in digits.iter().enumerate().filter(|(_, &d)| d != 0) {
                assert!(d % 2 != 0 && d.abs() < 16, "digit {d}");
                assert!(digits[i + 1..].iter().take(4).all(|&e| e == 0), "adjacent digits");
            }
        }
    }

    #[test]
    fn wnaf_matches_fixed_base() {
        for k in [1u64, 2, 3, 15, 16, 17, 31, 32, 33, 255, 0xdead_beef, u64::MAX] {
            let k = U256::from_u64(k);
            assert_eq!(mul_generator(&k).to_affine(), g().mul_vartime(&k).to_affine(), "k = {k:?}");
        }
        // Full-width scalars, including n - 1 (= -G).
        let k = U256::from_hex("f0e1d2c3b4a5968778695a4b3c2d1e0fdeadbeefcafebabe0123456789abcdef")
            .unwrap();
        let n_minus_1 = N.sbb(&U256::ONE).0;
        for k in [k, n_minus_1] {
            assert_eq!(mul_generator(&k).to_affine(), g().mul_vartime(&k).to_affine());
        }
        assert_eq!(mul_generator(&n_minus_1).to_affine(), g().neg().to_affine());
    }

    #[test]
    fn mixed_add_matches_general_add() {
        let p = g().mul_vartime(&U256::from_u64(5));
        let Affine::Point { x, y } = g().mul_vartime(&U256::from_u64(11)).to_affine() else {
            panic!()
        };
        let q = Affine::Point { x, y }.to_jacobian();
        assert_eq!(p.add_affine(&x, &y).to_affine(), p.add(&q).to_affine());
        // Doubling and inverse fallbacks.
        assert_eq!(q.add_affine(&x, &y).to_affine(), q.double().to_affine());
        assert!(q.neg().add_affine(&x, &y).is_infinity());
        assert_eq!(Jacobian::INFINITY.add_affine(&x, &y).to_affine(), q.to_affine());
    }

    #[test]
    fn fixed_base_zero_is_infinity() {
        assert!(mul_generator(&U256::ZERO).is_infinity());
        assert!(g().mul_vartime(&U256::ZERO).is_infinity());
    }

    #[test]
    fn add_infinity_identities() {
        let p = g().mul_vartime(&U256::from_u64(5));
        assert_eq!(p.add(&Jacobian::INFINITY).to_affine(), p.to_affine());
        assert_eq!(Jacobian::INFINITY.add(&p).to_affine(), p.to_affine());
    }

    #[test]
    fn p_plus_minus_p_is_infinity() {
        let p = g().mul_vartime(&U256::from_u64(9));
        assert!(p.add(&p.neg()).is_infinity());
    }
}
