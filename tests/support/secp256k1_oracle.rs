//! The secp256k1 arithmetic as the crypto crate first implemented it,
//! kept only as a test oracle: a generic pseudo-Mersenne reduction loop
//! shared by both moduli, Fermat inversion, bit-by-bit Shamir for
//! verification, and affine conversion for the r check. It is slow and
//! simple, and every signature and verdict of the production code must
//! match it.

use ledgerdb::crypto::digest::Digest;
use ledgerdb::crypto::point::Affine;
use ledgerdb::crypto::scalar::deterministic_nonce;
use ledgerdb::crypto::u256::U256;
use ledgerdb::crypto::Signature;

/// `a·b` as eight little-endian limbs (schoolbook).
fn widening_mul(a: &U256, b: &U256) -> [u64; 8] {
    let mut out = [0u64; 8];
    for i in 0..4 {
        let mut carry: u128 = 0;
        for j in 0..4 {
            let acc = out[i + j] as u128 + (a.0[i] as u128) * (b.0[j] as u128) + carry;
            out[i + j] = acc as u64;
            carry = acc >> 64;
        }
        out[i + 4] = carry as u64;
    }
    out
}

/// A modulus `m = 2^256 - c` with `c < 2^192`.
#[derive(Clone, Copy, Debug)]
pub struct Modulus {
    pub m: U256,
    pub c: U256,
}

impl Modulus {
    pub fn new(m: U256) -> Self {
        let (c, _) = U256([!m.0[0], !m.0[1], !m.0[2], !m.0[3]]).adc(&U256::ONE);
        Modulus { m, c }
    }

    pub fn reduce(&self, x: U256) -> U256 {
        if x.ge(&self.m) {
            x.sbb(&self.m).0
        } else {
            x
        }
    }

    /// Fold the high half as `hi·c + lo` until it vanishes, then subtract
    /// m while the value is at least m.
    pub fn reduce_wide(&self, x: [u64; 8]) -> U256 {
        let mut cur = x;
        loop {
            let hi = U256([cur[4], cur[5], cur[6], cur[7]]);
            let lo = U256([cur[0], cur[1], cur[2], cur[3]]);
            if hi.is_zero() {
                let mut r = lo;
                while r.ge(&self.m) {
                    r = r.sbb(&self.m).0;
                }
                return r;
            }
            let mut next = widening_mul(&hi, &self.c);
            let mut carry = 0u64;
            for (i, limb) in next.iter_mut().enumerate() {
                let o = if i < 4 { lo.0[i] } else { 0 };
                let (s1, c1) = limb.overflowing_add(o);
                let (s2, c2) = s1.overflowing_add(carry);
                *limb = s2;
                carry = (c1 as u64) + (c2 as u64);
            }
            cur = next;
        }
    }

    pub fn add(&self, a: &U256, b: &U256) -> U256 {
        let (sum, carry) = a.adc(b);
        if carry {
            self.reduce(sum.adc(&self.c).0)
        } else {
            self.reduce(sum)
        }
    }

    pub fn sub(&self, a: &U256, b: &U256) -> U256 {
        let (diff, borrow) = a.sbb(b);
        if borrow {
            diff.adc(&self.m).0
        } else {
            diff
        }
    }

    pub fn mul(&self, a: &U256, b: &U256) -> U256 {
        self.reduce_wide(widening_mul(a, b))
    }

    pub fn sq(&self, a: &U256) -> U256 {
        self.mul(a, a)
    }

    pub fn pow(&self, base: &U256, exp: &U256) -> U256 {
        let mut result = U256::ONE;
        let Some(top) = exp.highest_bit() else {
            return result;
        };
        for i in (0..=top).rev() {
            result = self.sq(&result);
            if exp.bit(i) {
                result = self.mul(&result, base);
            }
        }
        result
    }

    pub fn inv(&self, a: &U256) -> Option<U256> {
        if a.is_zero() {
            return None;
        }
        Some(self.pow(a, &self.m.sbb(&U256::from_u64(2)).0))
    }

    pub fn neg(&self, a: &U256) -> U256 {
        if a.is_zero() {
            U256::ZERO
        } else {
            self.m.sbb(a).0
        }
    }
}

pub fn fp() -> Modulus {
    Modulus::new(
        U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f").unwrap(),
    )
}

pub fn fn_order() -> Modulus {
    Modulus::new(
        U256::from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141").unwrap(),
    )
}

fn generator() -> Jacobian {
    Jacobian {
        x: U256::from_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")
            .unwrap(),
        y: U256::from_hex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8")
            .unwrap(),
        z: U256::ONE,
    }
}

pub fn is_on_curve(p: &Affine) -> bool {
    match p {
        Affine::Infinity => true,
        Affine::Point { x, y } => {
            let f = fp();
            f.sq(y) == f.add(&f.mul(&f.sq(x), x), &U256::from_u64(7))
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Jacobian {
    pub x: U256,
    pub y: U256,
    pub z: U256,
}

impl Jacobian {
    pub const INFINITY: Jacobian = Jacobian { x: U256::ONE, y: U256::ONE, z: U256::ZERO };

    pub fn from_affine(p: &Affine) -> Jacobian {
        match *p {
            Affine::Infinity => Jacobian::INFINITY,
            Affine::Point { x, y } => Jacobian { x, y, z: U256::ONE },
        }
    }

    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    pub fn to_affine(self) -> Affine {
        if self.is_infinity() {
            return Affine::Infinity;
        }
        let f = fp();
        let z_inv = f.inv(&self.z).unwrap();
        let z_inv2 = f.sq(&z_inv);
        let z_inv3 = f.mul(&z_inv2, &z_inv);
        Affine::Point { x: f.mul(&self.x, &z_inv2), y: f.mul(&self.y, &z_inv3) }
    }

    pub fn double(&self) -> Jacobian {
        if self.is_infinity() || self.y.is_zero() {
            return Jacobian::INFINITY;
        }
        let f = fp();
        let a = f.sq(&self.x);
        let b = f.sq(&self.y);
        let c = f.sq(&b);
        let xb = f.add(&self.x, &b);
        let mut d = f.sub(&f.sq(&xb), &a);
        d = f.sub(&d, &c);
        d = f.add(&d, &d);
        let e = f.add(&f.add(&a, &a), &a);
        let f_ = f.sq(&e);
        let x3 = f.sub(&f_, &f.add(&d, &d));
        let c2 = f.add(&c, &c);
        let c4 = f.add(&c2, &c2);
        let c8 = f.add(&c4, &c4);
        let y3 = f.sub(&f.mul(&e, &f.sub(&d, &x3)), &c8);
        let yz = f.mul(&self.y, &self.z);
        Jacobian { x: x3, y: y3, z: f.add(&yz, &yz) }
    }

    pub fn add(&self, other: &Jacobian) -> Jacobian {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let f = fp();
        let z1z1 = f.sq(&self.z);
        let z2z2 = f.sq(&other.z);
        let u1 = f.mul(&self.x, &z2z2);
        let u2 = f.mul(&other.x, &z1z1);
        let s1 = f.mul(&f.mul(&self.y, &other.z), &z2z2);
        let s2 = f.mul(&f.mul(&other.y, &self.z), &z1z1);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Jacobian::INFINITY;
        }
        let h = f.sub(&u2, &u1);
        let i = {
            let h2 = f.add(&h, &h);
            f.sq(&h2)
        };
        let j = f.mul(&h, &i);
        let r = {
            let d = f.sub(&s2, &s1);
            f.add(&d, &d)
        };
        let v = f.mul(&u1, &i);
        let mut x3 = f.sub(&f.sq(&r), &j);
        x3 = f.sub(&x3, &f.add(&v, &v));
        let mut y3 = f.mul(&r, &f.sub(&v, &x3));
        let s1j = f.mul(&s1, &j);
        y3 = f.sub(&y3, &f.add(&s1j, &s1j));
        let zz = f.add(&self.z, &other.z);
        let t = f.sub(&f.sq(&zz), &z1z1);
        let z3 = f.mul(&f.sub(&t, &z2z2), &h);
        Jacobian { x: x3, y: y3, z: z3 }
    }

    /// MSB-first double-and-add.
    pub fn mul_scalar(&self, k: &U256) -> Jacobian {
        let mut acc = Jacobian::INFINITY;
        let Some(top) = k.highest_bit() else {
            return acc;
        };
        for i in (0..=top).rev() {
            acc = acc.double();
            if k.bit(i) {
                acc = acc.add(self);
            }
        }
        acc
    }
}

/// `a·P + b·Q` with one shared doubling chain, one bit at a time.
pub fn double_scalar_mul(a: &U256, p: &Jacobian, b: &U256, q: &Jacobian) -> Jacobian {
    let pq = p.add(q);
    let top = match (a.highest_bit(), b.highest_bit()) {
        (None, None) => return Jacobian::INFINITY,
        (Some(x), None) => x,
        (None, Some(y)) => y,
        (Some(x), Some(y)) => x.max(y),
    };
    let mut acc = Jacobian::INFINITY;
    for i in (0..=top).rev() {
        acc = acc.double();
        match (a.bit(i), b.bit(i)) {
            (true, true) => acc = acc.add(&pq),
            (true, false) => acc = acc.add(p),
            (false, true) => acc = acc.add(q),
            (false, false) => {}
        }
    }
    acc
}

/// `k·G`.
pub fn mul_generator(k: &U256) -> Jacobian {
    generator().mul_scalar(k)
}

pub fn digest_to_scalar(d: &Digest) -> U256 {
    fn_order().reduce(U256::from_be_bytes(&d.0))
}

pub fn sign(sk: &U256, msg_digest: &Digest) -> Signature {
    let n = fn_order();
    let z = digest_to_scalar(msg_digest);
    let mut nonce_digest = *msg_digest;
    loop {
        let k = deterministic_nonce(sk, &nonce_digest);
        let Affine::Point { x, .. } = mul_generator(&k).to_affine() else {
            nonce_digest = ledgerdb::crypto::sha256(nonce_digest.as_bytes());
            continue;
        };
        let r = n.reduce(x);
        if r.is_zero() {
            nonce_digest = ledgerdb::crypto::sha256(nonce_digest.as_bytes());
            continue;
        }
        let k_inv = n.inv(&k).unwrap();
        let mut s = n.mul(&k_inv, &n.add(&z, &n.mul(&r, sk)));
        if s.is_zero() {
            nonce_digest = ledgerdb::crypto::sha256(nonce_digest.as_bytes());
            continue;
        }
        let n_minus_1 = n.m.sbb(&U256::ONE).0;
        let mut half = n_minus_1.0;
        for i in 0..4 {
            half[i] = (half[i] >> 1) | half.get(i + 1).map_or(0, |h| h << 63);
        }
        if U256(half).lt(&s) {
            s = n.neg(&s);
        }
        return Signature { r, s };
    }
}

pub fn verify(pk: &Affine, msg_digest: &Digest, sig: &Signature) -> bool {
    let n = fn_order();
    if sig.r.is_zero() || sig.s.is_zero() || sig.r.ge(&n.m) || sig.s.ge(&n.m) {
        return false;
    }
    if matches!(pk, Affine::Infinity) || !is_on_curve(pk) {
        return false;
    }
    let z = digest_to_scalar(msg_digest);
    let s_inv = n.inv(&sig.s).unwrap();
    let u1 = n.mul(&z, &s_inv);
    let u2 = n.mul(&sig.r, &s_inv);
    let r_point = double_scalar_mul(&u1, &generator(), &u2, &Jacobian::from_affine(pk));
    x_mod_n_is_r(&r_point, &sig.r)
}

/// The r check through affine x: `(X/Z²) mod n == r`.
pub fn x_mod_n_is_r(point: &Jacobian, r: &U256) -> bool {
    match point.to_affine() {
        Affine::Infinity => false,
        Affine::Point { x, .. } => fn_order().reduce(x) == *r,
    }
}
