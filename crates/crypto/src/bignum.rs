//! Arbitrary-precision unsigned integers.
//!
//! A compact big-integer implementation (little-endian `u64` limbs) with the
//! operations RSA needs: comparison, add/sub, schoolbook multiplication,
//! Knuth Algorithm D division, modular exponentiation and Miller–Rabin
//! primality testing in the Montgomery domain (a private `Mont` context per
//! odd modulus: word-serial Montgomery products over fixed-width stack
//! limbs, no division or allocation inside the exponent loop), and modular
//! inverse via extended Euclid. The textbook square-and-multiply `modpow`
//! and `mul`/`rem` Miller–Rabin they replace live on in [`crate::reference`]
//! as the executable specification.
//!
//! The representation invariant is "no trailing zero limbs"; zero is the
//! empty limb vector.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// # Examples
///
/// ```
/// use vg_crypto::bignum::BigUint;
///
/// let a = BigUint::from(10u64);
/// let b = BigUint::from(3u64);
/// let (q, r) = a.div_rem(&b);
/// assert_eq!(q, BigUint::from(3u64));
/// assert_eq!(r, BigUint::from(1u64));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs with no trailing zeros.
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = BigUint {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether this is exactly one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Whether the low bit is set.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Parses big-endian bytes (leading zeros allowed).
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serializes as big-endian bytes without leading zeros (empty for zero).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.drain(..skip);
        out
    }

    /// Serializes as exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_be_bytes_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_be_bytes();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Lowercase hexadecimal rendering (no leading zeros; "0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = format!("{:x}", self.limbs.last().unwrap());
        for limb in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{limb:016x}"));
        }
        s
    }

    /// Parses a hexadecimal string (no prefix).
    ///
    /// # Errors
    ///
    /// Returns `Err` if the string is empty or contains a non-hex digit.
    pub fn from_hex(s: &str) -> Result<Self, ParseBigUintError> {
        if s.is_empty() {
            return Err(ParseBigUintError);
        }
        let mut n = BigUint::zero();
        for c in s.chars() {
            let d = c.to_digit(16).ok_or(ParseBigUintError)? as u64;
            n = n.shl(4).add(&BigUint::from(d));
        }
        Ok(n)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Value of bit `i` (false beyond the top bit).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        self.limbs
            .get(limb)
            .is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    /// Builds a value from little-endian limbs (trailing zeros allowed).
    pub(crate) fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// The little-endian limbs, without trailing zeros.
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = l.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (unsigned underflow).
    pub fn sub(&self, other: &Self) -> Self {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> Self {
        if self.is_zero() || bits == 0 {
            let mut n = self.clone();
            n.normalize();
            return n;
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> Self {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            let src = &self.limbs[limb_shift..];
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Quotient and remainder of `self / divisor` (Knuth Algorithm D).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = Vec::with_capacity(self.limbs.len());
            let mut rem = 0u128;
            for &l in self.limbs.iter().rev() {
                let cur = (rem << 64) | l as u128;
                q.push((cur / d as u128) as u64);
                rem = cur % d as u128;
            }
            q.reverse();
            let mut qn = BigUint { limbs: q };
            qn.normalize();
            return (qn, BigUint::from(rem as u64));
        }
        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0);
        let vn = &v.limbs;
        let mut q = vec![0u64; m + 1];
        let v_top = vn[n - 1];
        let v_next = vn[n - 2];
        for j in (0..=m).rev() {
            let numer = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = numer / v_top as u128;
            let mut rhat = numer % v_top as u128;
            // Refine qhat (at most two corrections, per Knuth).
            while qhat >> 64 != 0 || qhat * v_next as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-subtract qhat * v from un[j..j+n+1].
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[j + i] as i128 - (p as u64) as i128 - borrow;
                un[j + i] = t as u64;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = un[j + n] as i128 - carry as i128 - borrow;
            un[j + n] = t as u64;
            if t < 0 {
                // qhat was one too large: add back.
                qhat -= 1;
                let mut c = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + c;
                    un[j + i] = s as u64;
                    c = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(c as u64);
            }
            q[j] = qhat as u64;
        }
        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint {
            limbs: un[..n].to_vec(),
        };
        rem.normalize();
        (quotient, rem.shr(shift))
    }

    /// `self mod m`.
    pub fn rem(&self, m: &Self) -> Self {
        self.div_rem(m).1
    }

    /// `self mod d` for a single-limb divisor, without allocating.
    fn rem_u64(&self, d: u64) -> u64 {
        self.limbs.iter().rev().fold(0u64, |r, &l| {
            ((((r as u128) << 64) | l as u128) % d as u128) as u64
        })
    }

    /// `self^exp mod m`: a left-to-right binary ladder in the Montgomery
    /// domain for odd moduli of up to 8 limbs (every RSA and Miller–Rabin
    /// modulus up to 512-bit keys); even or wider moduli take
    /// [`crate::reference::modpow`].
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &Self, m: &Self) -> Self {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if !m.is_odd() {
            return crate::reference::modpow(self, exp, m);
        }
        match m.limbs.len() {
            1 => self.mont_modpow::<1>(exp, m),
            2 => self.mont_modpow::<2>(exp, m),
            3..=4 => self.mont_modpow::<4>(exp, m),
            5..=8 => self.mont_modpow::<8>(exp, m),
            _ => crate::reference::modpow(self, exp, m),
        }
    }

    fn mont_modpow<const N: usize>(&self, exp: &Self, m: &Self) -> Self {
        let mont = Mont::<N>::new(m);
        let base = if self < m {
            limbs_of(self)
        } else {
            limbs_of(&self.rem(m))
        };
        let x = mont.pow(&mont.to_mont(&base), exp);
        BigUint::from_limbs(mont.out_of_mont(&x).to_vec())
    }

    /// Greatest common divisor (binary-free Euclid via div_rem).
    pub fn gcd(&self, other: &Self) -> Self {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse of `self` modulo `m`, if it exists.
    ///
    /// Uses the extended Euclidean algorithm over signed cofactors.
    pub fn modinv(&self, m: &Self) -> Option<Self> {
        // Extended Euclid tracking only the coefficient of `self`.
        // Signed values are represented as (magnitude, negative?).
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        let mut t0 = (BigUint::zero(), false);
        let mut t1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            let qt1 = q.mul(&t1.0);
            // t2 = t0 - q*t1 with sign handling.
            let t2 = if t0.1 == t1.1 {
                if t0.0 >= qt1 {
                    (t0.0.sub(&qt1), t0.1)
                } else {
                    (qt1.sub(&t0.0), !t0.1)
                }
            } else {
                (t0.0.add(&qt1), t0.1)
            };
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        let (mag, neg) = t0;
        let mag = mag.rem(m);
        Some(if neg && !mag.is_zero() {
            m.sub(&mag)
        } else {
            mag
        })
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases
    /// drawn from `rng`.
    ///
    /// Deterministic small-prime trial division runs first. For the limb
    /// sizes the simulator uses, 16 rounds gives an error probability far
    /// below anything observable.
    pub fn is_probable_prime(&self, rounds: u32, rng: &mut impl FnMut() -> u64) -> bool {
        const SMALL_PRIMES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
        if self.limbs.len() == 1 {
            let v = self.limbs[0];
            if v < 2 {
                return false;
            }
            if SMALL_PRIMES.contains(&v) {
                return true;
            }
        }
        if self.is_zero() || !self.is_odd() {
            return false;
        }
        // One multi-limb division by the primes' product, then single-word
        // remainders: the same divisibility tests, in the same order.
        let r = self.rem_u64(SMALL_PRIMES.iter().product());
        for &p in &SMALL_PRIMES {
            if r.is_multiple_of(p) {
                return self.limbs == [p];
            }
        }
        match self.limbs.len() {
            1 => self.miller_rabin::<1>(rounds, rng),
            2 => self.miller_rabin::<2>(rounds, rng),
            3..=4 => self.miller_rabin::<4>(rounds, rng),
            5..=8 => self.miller_rabin::<8>(rounds, rng),
            _ => crate::reference::is_probable_prime(self, rounds, rng),
        }
    }

    /// The Miller–Rabin rounds for an odd `self` of at most `N` limbs that
    /// survived trial division. Witnesses are drawn exactly as
    /// [`crate::reference::is_probable_prime`] draws them; one Montgomery
    /// context serves every round, and the squarings compare against the
    /// Montgomery forms of 1 and `self - 1`.
    fn miller_rabin<const N: usize>(&self, rounds: u32, rng: &mut impl FnMut() -> u64) -> bool {
        let mont = Mont::<N>::new(self);
        // Write self-1 = d * 2^s with d odd.
        let n_minus_1 = self.sub(&BigUint::one());
        let s = (0..n_minus_1.bit_len())
            .take_while(|&i| !n_minus_1.bit(i))
            .count();
        let d = n_minus_1.shr(s);
        let one = mont.to_mont(&unit());
        let minus_one = mont.to_mont(&limbs_of(&n_minus_1));
        'witness: for _ in 0..rounds {
            // Random base in [2, n-2].
            let mut limbs: Vec<u64> = (0..self.limbs.len()).map(|_| rng()).collect();
            limbs[self.limbs.len() - 1] &= u64::MAX >> 1;
            let mut a = BigUint::from_limbs(limbs).rem(&n_minus_1);
            if a < BigUint::from(2u64) {
                a = a.add(&BigUint::from(2u64));
            }
            let mut x = mont.pow(&mont.to_mont(&limbs_of(&a)), &d);
            if x == one || x == minus_one {
                continue 'witness;
            }
            for _ in 0..s - 1 {
                x = mont.mul(&x, &x);
                if x == minus_one {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Generates a random probable prime of exactly `bits` bits.
    pub fn gen_prime(bits: usize, rng: &mut impl FnMut() -> u64) -> Self {
        assert!(bits >= 8, "prime size too small");
        loop {
            let limbs_needed = bits.div_ceil(64);
            let mut limbs: Vec<u64> = (0..limbs_needed).map(|_| rng()).collect();
            // Force exact bit length and oddness.
            let top_bit = (bits - 1) % 64;
            let top = &mut limbs[limbs_needed - 1];
            *top &= if top_bit == 63 {
                u64::MAX
            } else {
                (1u64 << (top_bit + 1)) - 1
            };
            *top |= 1u64 << top_bit;
            limbs[0] |= 1;
            let mut cand = BigUint { limbs };
            cand.normalize();
            if cand.is_probable_prime(16, rng) {
                return cand;
            }
        }
    }
}

/// `x`'s limbs zero-extended to `N` (`x` must fit).
fn limbs_of<const N: usize>(x: &BigUint) -> [u64; N] {
    let mut out = [0u64; N];
    out[..x.limbs.len()].copy_from_slice(&x.limbs);
    out
}

/// Montgomery arithmetic modulo an odd `m < R = 2^(64N)` (Montgomery,
/// *Math. Comp.* 1985). Values live in the domain as `x·R mod m`, and one
/// product `a·b·R⁻¹ mod m` costs 2N² limb multiplies and no division.
/// `N` is fixed at compile time, so every loop below has a constant trip
/// count and the running sum lives in a stack array.
struct Mont<const N: usize> {
    m: [u64; N],
    /// `-m⁻¹ mod 2⁶⁴`.
    m_inv: u64,
    /// `R² mod m`, which maps a value into the domain with one product.
    r2: [u64; N],
}

impl<const N: usize> Mont<N> {
    fn new(m: &BigUint) -> Self {
        debug_assert!(m.is_odd() && m.limbs.len() <= N);
        let m0 = m.limbs[0];
        // Newton's iteration for m0⁻¹ mod 2⁶⁴. An odd m0 is its own inverse
        // mod 2³, and each step doubles the correct low bits:
        // 3 → 6 → 12 → 24 → 48 → 96.
        let mut inv = m0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        Mont {
            m: limbs_of(m),
            m_inv: inv.wrapping_neg(),
            r2: limbs_of(&BigUint::one().shl(128 * N).rem(m)),
        }
    }

    /// `a·b·R⁻¹ mod m` for `a, b < m`, fully reduced. Each word of `b`
    /// adds `a·bᵢ + q·m` to the running sum and shifts it down one word,
    /// with `q` chosen so the low word cancels: the finely integrated form
    /// of Koç, Acar and Kaliski (*IEEE Micro* 1996), whose two carry chains
    /// interleave instead of running one after the other.
    #[inline(always)]
    fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        // The running sum is `hi·2^(64N) + t`, below 2m throughout.
        let mut t = [0u64; N];
        let mut hi = 0u64;
        for &bi in b {
            let s = t[0] as u128 + a[0] as u128 * bi as u128;
            let q = (s as u64).wrapping_mul(self.m_inv);
            let mut c1 = (s >> 64) as u64;
            let mut c2 = ((s as u64 as u128 + q as u128 * self.m[0] as u128) >> 64) as u64;
            for j in 1..N {
                let s = t[j] as u128 + a[j] as u128 * bi as u128 + c1 as u128;
                c1 = (s >> 64) as u64;
                let s = s as u64 as u128 + q as u128 * self.m[j] as u128 + c2 as u128;
                c2 = (s >> 64) as u64;
                t[j - 1] = s as u64;
            }
            let s = hi as u128 + c1 as u128 + c2 as u128;
            t[N - 1] = s as u64;
            hi = (s >> 64) as u64;
        }
        if hi != 0 || !lt(&t, &self.m) {
            let mut borrow = false;
            for (tj, &mj) in t.iter_mut().zip(&self.m) {
                let (d1, b1) = tj.overflowing_sub(mj);
                let (d2, b2) = d1.overflowing_sub(borrow as u64);
                *tj = d2;
                borrow = b1 | b2;
            }
        }
        t
    }

    fn to_mont(&self, x: &[u64; N]) -> [u64; N] {
        self.mul(x, &self.r2)
    }

    fn out_of_mont(&self, x: &[u64; N]) -> [u64; N] {
        self.mul(x, &unit())
    }

    /// `x^exp` for `x` in the domain, by a left-to-right binary ladder.
    fn pow(&self, x: &[u64; N], exp: &BigUint) -> [u64; N] {
        let bits = exp.bit_len();
        if bits == 0 {
            return self.to_mont(&unit());
        }
        let mut acc = *x;
        for i in (0..bits - 1).rev() {
            acc = self.mul(&acc, &acc);
            if exp.bit(i) {
                acc = self.mul(&acc, x);
            }
        }
        acc
    }
}

/// The value 1 in `N` limbs.
fn unit<const N: usize>() -> [u64; N] {
    let mut one = [0u64; N];
    one[0] = 1;
    one
}

/// `a < b` over equal-width little-endian limbs.
fn lt<const N: usize>(a: &[u64; N], b: &[u64; N]) -> bool {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// Error parsing a [`BigUint`] from text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseBigUintError;

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid big integer syntax")
    }
}

impl std::error::Error for ParseBigUintError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn basic_arithmetic() {
        assert_eq!(n(2).add(&n(3)), n(5));
        assert_eq!(n(5).sub(&n(3)), n(2));
        assert_eq!(n(7).mul(&n(6)), n(42));
        assert_eq!(n(0).add(&n(0)), BigUint::zero());
    }

    #[test]
    fn carry_propagation() {
        let max = BigUint::from(u64::MAX);
        let sum = max.add(&BigUint::one());
        assert_eq!(sum.to_hex(), "10000000000000000");
        assert_eq!(sum.sub(&BigUint::one()), max);
    }

    #[test]
    fn mul_multi_limb() {
        let a = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let sq = a.mul(&a);
        assert_eq!(
            sq.to_hex(),
            "fffffffffffffffffffffffffffffffe00000000000000000000000000000001"
        );
    }

    #[test]
    fn div_rem_single_limb() {
        let (q, r) = n(100).div_rem(&n(7));
        assert_eq!((q, r), (n(14), n(2)));
    }

    #[test]
    fn div_rem_multi_limb() {
        let a = BigUint::from_hex("123456789abcdef0123456789abcdef0123456789abcdef0").unwrap();
        let b = BigUint::from_hex("fedcba9876543210fedcba98").unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn div_rem_dividend_smaller() {
        let (q, r) = n(3).div_rem(&n(10));
        assert_eq!((q, r), (BigUint::zero(), n(3)));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = n(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn shifts() {
        let a = BigUint::from_hex("123456789abcdef").unwrap();
        assert_eq!(a.shl(4).to_hex(), "123456789abcdef0");
        assert_eq!(a.shl(64).shr(64), a);
        assert_eq!(a.shr(1000), BigUint::zero());
        assert_eq!(a.shl(67).shr(3).shr(64), a);
    }

    #[test]
    fn bit_accessors() {
        let a = n(0b1010);
        assert!(!a.bit(0));
        assert!(a.bit(1));
        assert!(a.bit(3));
        assert!(!a.bit(64));
        assert_eq!(a.bit_len(), 4);
        assert_eq!(BigUint::zero().bit_len(), 0);
    }

    #[test]
    fn modpow_fermat() {
        // 2^(p-1) mod p == 1 for prime p.
        let p = n(1_000_000_007);
        assert_eq!(n(2).modpow(&p.sub(&BigUint::one()), &p), BigUint::one());
        assert_eq!(n(5).modpow(&BigUint::zero(), &p), BigUint::one());
        assert_eq!(n(5).modpow(&n(3), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn modinv_known() {
        // 3 * 4 = 12 ≡ 1 (mod 11)
        assert_eq!(n(3).modinv(&n(11)), Some(n(4)));
        assert_eq!(n(2).modinv(&n(4)), None); // gcd 2
        let p = n(1_000_000_007);
        let inv = n(123456).modinv(&p).unwrap();
        assert_eq!(n(123456).mul(&inv).rem(&p), BigUint::one());
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(n(48).gcd(&n(18)), n(6));
        assert_eq!(n(17).gcd(&n(13)), n(1));
        assert_eq!(n(0).gcd(&n(5)), n(5));
    }

    #[test]
    fn byte_roundtrip() {
        let a = BigUint::from_hex("0123456789abcdef00ff").unwrap();
        assert_eq!(BigUint::from_be_bytes(&a.to_be_bytes()), a);
        assert_eq!(a.to_be_bytes_padded(16).len(), 16);
        assert_eq!(BigUint::from_be_bytes(&a.to_be_bytes_padded(16)), a);
        assert_eq!(BigUint::from_be_bytes(&[]), BigUint::zero());
        assert_eq!(BigUint::from_be_bytes(&[0, 0, 0]), BigUint::zero());
    }

    #[test]
    fn hex_roundtrip() {
        for h in ["0", "1", "ff", "123456789abcdef0123456789abcdef"] {
            assert_eq!(BigUint::from_hex(h).unwrap().to_hex(), h);
        }
        // Leading zeros are accepted on parse and dropped on render.
        assert_eq!(BigUint::from_hex("000ff").unwrap().to_hex(), "ff");
        assert!(BigUint::from_hex("").is_err());
        assert!(BigUint::from_hex("xyz").is_err());
    }

    #[test]
    fn miller_rabin_known_values() {
        let mut rng = {
            let mut s = 0x1234_5678_9abc_def0u64;
            move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            }
        };
        for p in [2u64, 3, 5, 17, 101, 7919, 1_000_000_007] {
            assert!(n(p).is_probable_prime(16, &mut rng), "{p} should be prime");
        }
        for c in [
            0u64,
            1,
            4,
            9,
            100,
            7917,
            561, /* Carmichael */
            1_000_000_005,
        ] {
            assert!(
                !n(c).is_probable_prime(16, &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn gen_prime_has_requested_size() {
        let mut s = 42u64;
        let mut rng = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s
        };
        let p = BigUint::gen_prime(96, &mut rng);
        assert_eq!(p.bit_len(), 96);
        assert!(p.is_odd());
    }
}
