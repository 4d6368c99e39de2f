//! Dense bit-packed polynomials over GF(2).

use std::fmt;

/// A polynomial over GF(2), bit `i` of the backing words = coefficient of x^i.
///
/// Always stored *normalized*: no trailing zero words, so `degree` is O(1)
/// off the last word.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Gf2Poly {
    words: Vec<u64>,
}

impl Gf2Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Self { words: Vec::new() }
    }

    /// The constant polynomial 1.
    pub fn one() -> Self {
        Self { words: vec![1] }
    }

    /// The monomial x^k.
    pub fn monomial(k: usize) -> Self {
        let mut words = vec![0u64; k / 64 + 1];
        words[k / 64] = 1u64 << (k % 64);
        Self { words }
    }

    /// Build from an iterator of exponents with coefficient 1.
    pub fn from_exponents(exps: impl IntoIterator<Item = usize>) -> Self {
        let mut p = Self::zero();
        for e in exps {
            p.flip(e);
        }
        p
    }

    /// Build from a little-endian bit slice (bit i = coefficient of x^i).
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut p = Self::zero();
        for (i, &b) in bits.iter().enumerate() {
            if b {
                p.flip(i);
            }
        }
        p
    }

    /// True iff this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.words.is_empty()
    }

    /// Degree of the polynomial; `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        let last = *self.words.last()?;
        Some((self.words.len() - 1) * 64 + (63 - last.leading_zeros() as usize))
    }

    /// Coefficient of x^i.
    pub fn coeff(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Toggle coefficient of x^i.
    pub fn flip(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] ^= 1u64 << (i % 64);
        self.normalize();
    }

    fn normalize(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }

    /// Number of nonzero coefficients.
    pub fn weight(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Addition (= subtraction) in GF(2)\[x\].
    pub fn add(&self, other: &Self) -> Self {
        let (longer, shorter) = if self.words.len() >= other.words.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut words = longer.words.clone();
        for (w, s) in words.iter_mut().zip(&shorter.words) {
            *w ^= s;
        }
        let mut p = Self { words };
        p.normalize();
        p
    }

    /// Schoolbook carry-less multiplication (word-sliced).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut words = vec![0u64; self.words.len() + other.words.len()];
        for (i, &a) in self.words.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for bit in 0..64 {
                if a >> bit & 1 == 1 {
                    // xor other << (64*i + bit)
                    for (j, &b) in other.words.iter().enumerate() {
                        if b == 0 {
                            continue;
                        }
                        let idx = i + j;
                        words[idx] ^= b << bit;
                        if bit != 0 {
                            words[idx + 1] ^= b >> (64 - bit);
                        }
                    }
                }
            }
        }
        let mut p = Self { words };
        p.normalize();
        p
    }

    /// Squaring: spreads each bit i to position 2i (Frobenius map in GF(2)\[x\]).
    pub fn square(&self) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let mut words = vec![0u64; self.words.len() * 2];
        for (i, &w) in self.words.iter().enumerate() {
            let lo = spread_bits(w as u32);
            let hi = spread_bits((w >> 32) as u32);
            words[2 * i] = lo;
            words[2 * i + 1] = hi;
        }
        let mut p = Self { words };
        p.normalize();
        p
    }

    /// Remainder of `self` modulo `modulus` (long division).
    pub fn rem(&self, modulus: &Self) -> Self {
        let md = modulus.degree().expect("modulus must be nonzero");
        let mut r = self.clone();
        while let Some(d) = r.degree() {
            if d < md {
                break;
            }
            // r ^= modulus << (d - md)
            r = r.add(&modulus.shl(d - md));
        }
        r
    }

    /// Left shift by `k` (multiply by x^k).
    pub fn shl(&self, k: usize) -> Self {
        if self.is_zero() || k == 0 {
            return self.clone();
        }
        let word_shift = k / 64;
        let bit_shift = k % 64;
        let mut words = vec![0u64; self.words.len() + word_shift + 1];
        for (i, &w) in self.words.iter().enumerate() {
            words[i + word_shift] ^= w << bit_shift;
            if bit_shift != 0 {
                words[i + word_shift + 1] ^= w >> (64 - bit_shift);
            }
        }
        let mut p = Self { words };
        p.normalize();
        p
    }

    /// Reciprocal polynomial `x^deg · p(1/x)` (coefficients reversed).
    ///
    /// Berlekamp-Massey returns the *connection* polynomial
    /// `C(x) = 1 + c_1 x + …`; the characteristic polynomial of the
    /// one-step-forward transition is its reciprocal — the distinction
    /// matters for jump-ahead (irreducibility/degree are invariant).
    pub fn reciprocal(&self) -> Self {
        let Some(deg) = self.degree() else {
            return Self::zero();
        };
        let mut p = Self::zero();
        for i in 0..=deg {
            if self.coeff(i) {
                p.flip(deg - i);
            }
        }
        p
    }

    /// `x^(2^e) mod modulus` by repeated squaring of x.
    pub fn x_pow_pow2_mod(e: usize, modulus: &Self) -> Self {
        let mut acc = Self::monomial(1).rem(modulus);
        for _ in 0..e {
            acc = acc.square().rem(modulus);
        }
        acc
    }

    /// Irreducibility over GF(2) for a polynomial of **prime** degree p:
    /// `f` is irreducible iff `x^(2^p) ≡ x (mod f)` and
    /// `gcd(f, x^2 − x) = 1` (no degree-1 factors). For prime p these two
    /// conditions are exactly Rabin's test (the only proper divisor of p
    /// is 1).
    pub fn is_irreducible_prime_degree(&self) -> bool {
        let Some(p) = self.degree() else {
            return false;
        };
        if p < 2 {
            return p == 1;
        }
        debug_assert!(is_prime(p), "test only valid for prime degree, got {p}");
        // gcd(f, x^2 - x) — no roots in GF(2): f(0) != 0 and f(1) != 0.
        if !self.coeff(0) {
            return false; // divisible by x
        }
        if self.weight().is_multiple_of(2) {
            return false; // f(1) = 0 ⇒ divisible by x+1
        }
        let x2p = Self::x_pow_pow2_mod(p, self);
        x2p == Self::monomial(1).rem(self)
    }
}

/// Spread the 32 bits of `w` into the even positions of a u64.
fn spread_bits(w: u32) -> u64 {
    let mut x = w as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Tiny deterministic primality check (trial division) — degrees here are
/// small (≤ 19937).
fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

impl fmt::Debug for Gf2Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for i in (0..=self.degree().unwrap()).rev() {
            if self.coeff(i) {
                if !first {
                    write!(f, " + ")?;
                }
                match i {
                    0 => write!(f, "1")?,
                    1 => write!(f, "x")?,
                    _ => write!(f, "x^{i}")?,
                }
                first = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_and_coeffs() {
        let p = Gf2Poly::from_exponents([0, 3, 64, 100]);
        assert_eq!(p.degree(), Some(100));
        assert!(p.coeff(0) && p.coeff(3) && p.coeff(64) && p.coeff(100));
        assert!(!p.coeff(1) && !p.coeff(99));
        assert_eq!(p.weight(), 4);
    }

    #[test]
    fn zero_properties() {
        let z = Gf2Poly::zero();
        assert!(z.is_zero());
        assert_eq!(z.degree(), None);
        assert_eq!(z.add(&z), z);
        assert_eq!(z.mul(&Gf2Poly::one()), z);
    }

    #[test]
    fn addition_is_xor() {
        let a = Gf2Poly::from_exponents([0, 1, 5]);
        let b = Gf2Poly::from_exponents([1, 5, 7]);
        assert_eq!(a.add(&b), Gf2Poly::from_exponents([0, 7]));
        // self-inverse
        assert!(a.add(&a).is_zero());
    }

    #[test]
    fn multiplication_small_cases() {
        // (x+1)(x+1) = x^2+1 over GF(2)
        let xp1 = Gf2Poly::from_exponents([0, 1]);
        assert_eq!(xp1.mul(&xp1), Gf2Poly::from_exponents([0, 2]));
        // (x^2+x+1)(x+1) = x^3+1
        let a = Gf2Poly::from_exponents([0, 1, 2]);
        assert_eq!(a.mul(&xp1), Gf2Poly::from_exponents([0, 3]));
    }

    #[test]
    fn multiplication_across_word_boundary() {
        let a = Gf2Poly::monomial(63);
        let b = Gf2Poly::monomial(63);
        assert_eq!(a.mul(&b), Gf2Poly::monomial(126));
        let c = Gf2Poly::from_exponents([0, 63]);
        assert_eq!(
            c.mul(&c),
            Gf2Poly::from_exponents([0, 126]),
            "squares spread across words"
        );
    }

    #[test]
    fn square_matches_mul() {
        let p = Gf2Poly::from_exponents([0, 2, 5, 17, 40, 64, 65, 130]);
        assert_eq!(p.square(), p.mul(&p));
    }

    #[test]
    fn rem_basic() {
        // x^3 + 1 mod (x^2 + x + 1): x^3+1 = (x+1)(x^2+x+1) → remainder 0
        let f = Gf2Poly::from_exponents([0, 3]);
        let m = Gf2Poly::from_exponents([0, 1, 2]);
        assert!(f.rem(&m).is_zero());
        // x^2 mod (x^2+x+1) = x+1
        assert_eq!(
            Gf2Poly::monomial(2).rem(&m),
            Gf2Poly::from_exponents([0, 1])
        );
    }

    #[test]
    fn irreducible_small_polynomials() {
        // Irreducible of prime degree: x^2+x+1, x^3+x+1, x^5+x^2+1
        assert!(Gf2Poly::from_exponents([0, 1, 2]).is_irreducible_prime_degree());
        assert!(Gf2Poly::from_exponents([0, 1, 3]).is_irreducible_prime_degree());
        assert!(Gf2Poly::from_exponents([0, 2, 5]).is_irreducible_prime_degree());
        // Reducible: x^2+1 = (x+1)^2 ; x^3+x^2+x+1 = (x+1)(x^2+1)
        assert!(!Gf2Poly::from_exponents([0, 2]).is_irreducible_prime_degree());
        assert!(!Gf2Poly::from_exponents([0, 1, 2, 3]).is_irreducible_prime_degree());
    }

    #[test]
    fn irreducible_trinomial_degree_89() {
        // x^89 + x^38 + 1 is a known irreducible (indeed primitive) trinomial.
        let t = Gf2Poly::from_exponents([0, 38, 89]);
        assert!(t.is_irreducible_prime_degree());
        // Perturbing it breaks irreducibility (even weight ⇒ x+1 divides).
        let bad = Gf2Poly::from_exponents([0, 1, 38, 89]);
        assert!(!bad.is_irreducible_prime_degree());
    }

    #[test]
    fn x_pow_pow2_mod_small() {
        // mod x^2+x+1 (field GF(4)): x^2 = x+1, x^4 = x ⇒ x^(2^2) ≡ x
        let m = Gf2Poly::from_exponents([0, 1, 2]);
        assert_eq!(Gf2Poly::x_pow_pow2_mod(2, &m), Gf2Poly::monomial(1));
    }

    #[test]
    fn shl_shifts_degree() {
        let p = Gf2Poly::from_exponents([0, 3]);
        assert_eq!(p.shl(70), Gf2Poly::from_exponents([70, 73]));
    }

    #[test]
    fn debug_rendering() {
        let p = Gf2Poly::from_exponents([0, 1, 5]);
        assert_eq!(format!("{p:?}"), "x^5 + x + 1");
        assert_eq!(format!("{:?}", Gf2Poly::zero()), "0");
    }
}
