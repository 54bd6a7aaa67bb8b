//! Output checks: the paper's point-wise bound, and byte identity.

use crate::adapter::Elem;
use std::cmp::Ordering;

/// Points of `back` that break `|x - x'| <= bound * |x|` against `orig`.
/// The comparison is `f64::total_cmp`, so a NaN error counts as a
/// violation instead of passing silently; a length mismatch counts every
/// missing or extra point.
pub fn bound_violations<F: Elem>(orig: &[F], back: &[F], bound: f64) -> u64 {
    let bad = orig
        .iter()
        .zip(back)
        .filter(|&(&x, &y)| {
            let (x, y) = (x.to_f64(), y.to_f64());
            (x - y).abs().total_cmp(&(bound * x.abs())) == Ordering::Greater
        })
        .count();
    (bad + orig.len().abs_diff(back.len())) as u64
}

/// Subnormal values in `data`: the inputs whose bound pwrel is known
/// not to keep. Reported with the inputs, never filtered out.
pub fn subnormals<F: Elem>(data: &[F]) -> u64 {
    data.iter()
        .filter(|v| {
            let x = v.to_f64().abs();
            x != 0.0 && x < F::MIN_POSITIVE.to_f64()
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_count_nan_and_length() {
        let orig = [1.0f32, -2.0, 0.0, 4.0];
        assert_eq!(
            bound_violations(&orig, &[1.0005, -2.001, 0.0, 4.0], 1e-3),
            0
        );
        assert_eq!(bound_violations(&orig, &[1.01, -2.0, 0.0, 4.0], 1e-3), 1);
        assert_eq!(bound_violations(&orig, &[1.0, -2.0, 1e-30, 4.0], 1e-3), 1);
        assert_eq!(
            bound_violations(&orig, &[f32::NAN, -2.0, 0.0, 4.0], 1e-3),
            1
        );
        assert_eq!(bound_violations(&orig, &[1.0, -2.0], 1e-3), 2);
    }

    #[test]
    fn subnormals_are_counted() {
        assert_eq!(subnormals(&[1e-40f32, 0.0, 1.0, -1e-39]), 2);
        assert_eq!(subnormals(&[1e-40f64]), 0);
    }
}
