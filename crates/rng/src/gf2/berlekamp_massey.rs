//! Berlekamp-Massey over GF(2): minimal polynomial (shortest LFSR) of a
//! binary sequence.
//!
//! Dynamic Creation uses this to recover the characteristic polynomial of a
//! candidate Mersenne-Twister: any single output bit of an MT is a linear
//! functional of the 2^p-period linear state, so the minimal polynomial of a
//! long-enough output-bit sequence equals the (irreducible, hence minimal)
//! characteristic polynomial when the candidate achieves full period.

use super::poly::Gf2Poly;

/// Minimal polynomial `C(x) = 1 + c_1 x + … + c_L x^L` of `seq`, i.e. the
/// shortest linear recurrence `s_n = Σ_{i=1..L} c_i s_{n-i}` generating it.
///
/// To recover a recurrence of degree `d` reliably, supply at least `2d` bits.
pub fn minimal_polynomial(seq: &[bool]) -> Gf2Poly {
    let n = seq.len();
    // c = current connection polynomial, b = previous.
    let mut c = vec![false; n + 1];
    let mut b = vec![false; n + 1];
    c[0] = true;
    b[0] = true;
    let mut l = 0usize; // current LFSR length
    let mut m = 1usize; // steps since last length change
    for i in 0..n {
        // discrepancy d = s_i + Σ_{j=1..l} c_j s_{i-j}
        let mut d = seq[i];
        for j in 1..=l {
            if c[j] && seq[i - j] {
                d = !d;
            }
        }
        if !d {
            m += 1;
        } else if 2 * l <= i {
            let t = c.clone();
            for j in 0..(n + 1 - m) {
                c[j + m] ^= b[j];
            }
            l = i + 1 - l;
            b = t;
            m = 1;
        } else {
            for j in 0..(n + 1 - m) {
                c[j + m] ^= b[j];
            }
            m += 1;
        }
    }
    Gf2Poly::from_bits(&c[..=l])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run an LFSR with taps given by connection polynomial exponents
    /// (recurrence s_n = XOR of s_{n-e} for each tap exponent e >= 1).
    fn lfsr(taps: &[usize], init: &[bool], len: usize) -> Vec<bool> {
        let deg = *taps.iter().max().unwrap();
        assert_eq!(init.len(), deg);
        let mut s: Vec<bool> = init.to_vec();
        while s.len() < len {
            let n = s.len();
            let mut bit = false;
            for &t in taps {
                bit ^= s[n - t];
            }
            s.push(bit);
        }
        s
    }

    #[test]
    fn recovers_simple_lfsr() {
        // s_n = s_{n-1} ^ s_{n-3}  → C(x) = 1 + x + x^3
        let seq = lfsr(&[1, 3], &[true, false, false], 40);
        let c = minimal_polynomial(&seq);
        assert_eq!(c, Gf2Poly::from_exponents([0, 1, 3]));
    }

    #[test]
    fn recovers_degree_89_trinomial() {
        // x^89 + x^38 + 1 ⇒ recurrence s_n = s_{n-51} ^ s_{n-89}
        // (reciprocal tap positions; BM returns the connection polynomial of
        // whichever recurrence generated the data).
        let mut init = vec![false; 89];
        init[0] = true;
        init[13] = true;
        init[55] = true;
        let seq = lfsr(&[51, 89], &init, 89 * 2 + 20);
        let c = minimal_polynomial(&seq);
        assert_eq!(c.degree(), Some(89));
        assert_eq!(c, Gf2Poly::from_exponents([0, 51, 89]));
    }

    #[test]
    fn constant_zero_sequence() {
        let seq = vec![false; 32];
        let c = minimal_polynomial(&seq);
        assert_eq!(c, Gf2Poly::one());
        assert_eq!(minimal_polynomial(&seq).degree().unwrap_or(0), 0);
    }

    #[test]
    fn constant_one_sequence() {
        // all-ones satisfies s_n = s_{n-1} → C = 1 + x
        let seq = vec![true; 32];
        assert_eq!(minimal_polynomial(&seq), Gf2Poly::from_exponents([0, 1]));
    }

    #[test]
    fn impulse_has_max_complexity_half() {
        // A single 1 at the end is consistent only with high-degree
        // recurrences; BM yields L = n/2 + ... for the worst case; just check
        // it is large.
        let mut seq = vec![false; 20];
        seq[19] = true;
        assert!(minimal_polynomial(&seq).degree().unwrap_or(0) >= 10);
    }

    #[test]
    fn minimal_poly_regenerates_sequence() {
        // Property: the recurrence given by C regenerates the input.
        let seq = lfsr(&[2, 5], &[true, true, false, true, false], 64);
        let c = minimal_polynomial(&seq);
        let deg = c.degree().unwrap();
        for n in deg..seq.len() {
            let mut bit = false;
            for j in 1..=deg {
                if c.coeff(j) && seq[n - j] {
                    bit = !bit;
                }
            }
            assert_eq!(bit, seq[n], "mismatch at position {n}");
        }
    }
}
