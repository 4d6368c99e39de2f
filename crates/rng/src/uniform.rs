//! Integer-to-float uniform conversions (`uint2float` in the paper's
//! Listing 2).
//!
//! Single precision holds 24 mantissa bits, so the conversions keep the top
//! 24 bits of the 32-bit draw — every representable output is hit exactly and
//! the lattice spacing is 2^-24, the same convention hardware RNG cores use.

/// Map a `u32` to a single-precision uniform in `[0, 1)`.
#[inline]
pub fn uint2float(u: u32) -> f32 {
    (u >> 8) as f32 * (1.0 / 16_777_216.0)
}

/// Map a `u32` to a single-precision uniform in `[-1, 1)` (Marsaglia-Bray
/// needs points in the square `[-1,1)²`).
#[inline]
pub fn uint2float_signed(u: u32) -> f32 {
    (u >> 8) as f32 * (2.0 / 16_777_216.0) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_range_endpoints() {
        assert_eq!(uint2float(0), 0.0);
        let top = uint2float(u32::MAX);
        assert!(top < 1.0, "must stay below 1.0, got {top}");
        assert!(top > 0.9999, "top of range too low: {top}");
    }

    #[test]
    fn signed_range_endpoints() {
        assert_eq!(uint2float_signed(0), -1.0);
        let top = uint2float_signed(u32::MAX);
        assert!(top < 1.0 && top > 0.9999);
        // Midpoint maps near zero.
        let mid = uint2float_signed(0x8000_0000);
        assert!(mid.abs() < 1e-6, "midpoint should be ~0, got {mid}");
    }

    #[test]
    fn resolution_is_2_pow_minus_24() {
        let a = uint2float(0x0000_0100);
        let b = uint2float(0x0000_0200);
        assert_eq!(b - a, 1.0 / 16_777_216.0);
        // Sub-resolution bits are dropped.
        assert_eq!(uint2float(0x0000_01FF), a);
    }

    #[test]
    fn monotone_in_input() {
        let mut prev = -1.0f32;
        for k in 0..=1000u32 {
            let v = uint2float(k * 4_294_967); // spread over range
            assert!(v >= prev);
            prev = v;
        }
    }
}
