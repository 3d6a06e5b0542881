//! Value-generation strategies.

use rand::rngs::StdRng;
use rand::Rng;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// A recipe for generating values of `Value`.
///
/// Unlike real proptest there is no value tree / shrinking; a strategy just
/// samples a value from an RNG.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Samples one value.
    fn sample_value(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample_value(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.sample_value(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample_value(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_strategy_for_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample_value(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample_value(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_strategy_for_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// Types [`any`] can generate.
pub trait Arbitrary: Sized {
    /// Samples an arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_uniform {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen()
            }
        }
    )*};
}
impl_arbitrary_uniform!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        // Finite, sign-balanced, spanning several orders of magnitude.
        let mag: f32 = rng.gen_range(-6.0f32..6.0);
        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        sign * 10f32.powf(mag)
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        let mag: f64 = rng.gen_range(-9.0f64..9.0);
        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        sign * 10f64.powf(mag)
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample_value(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Arbitrary value of type `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! impl_strategy_for_tuples {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample_value(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample_value(rng),)+)
            }
        }
    )*};
}
impl_strategy_for_tuples! {
    (A 0);
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
    (A 0, B 1, C 2, D 3, E 4, F 5);
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6);
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7);
}

/// Length specifications accepted by [`vec()`].
pub trait IntoSizeRange {
    /// Lower/upper (inclusive) length bounds.
    fn bounds(&self) -> (usize, usize);
}

impl IntoSizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

impl IntoSizeRange for Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start < self.end, "vec strategy: empty size range");
        (self.start, self.end - 1)
    }
}

impl IntoSizeRange for RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        (*self.start(), *self.end())
    }
}

/// Strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    elem: S,
    min: usize,
    max: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.min..=self.max);
        (0..len).map(|_| self.elem.sample_value(rng)).collect()
    }
}

/// `Vec` strategy with element strategy `elem` and a length in `size`.
pub fn vec<S: Strategy>(elem: S, size: impl IntoSizeRange) -> VecStrategy<S> {
    let (min, max) = size.bounds();
    VecStrategy { elem, min, max }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn ranges_tuples_vecs_compose() {
        let mut r = rng();
        let strat = (0usize..5, 0.0f32..1.0).prop_map(|(n, x)| (n, x * 2.0));
        for _ in 0..100 {
            let (n, x) = strat.sample_value(&mut r);
            assert!(n < 5);
            assert!((0.0..2.0).contains(&x));
        }
        let v = vec(1usize..4, 2..6).sample_value(&mut r);
        assert!((2..6).contains(&v.len()));
        assert!(v.iter().all(|&e| (1..4).contains(&e)));
    }

    #[test]
    fn any_generates_spread() {
        let mut r = rng();
        let seen: Vec<u64> = (0..16).map(|_| any::<u64>().sample_value(&mut r)).collect();
        let first = seen[0];
        assert!(seen.iter().any(|&v| v != first));
        let f = any::<f32>().sample_value(&mut r);
        assert!(f.is_finite());
    }

    #[test]
    fn just_yields_value() {
        assert_eq!(Just(7).sample_value(&mut rng()), 7);
    }
}

/// Strategy over every *normal* `f32` (no zeros, subnormals, infinities or
/// NaNs): uniform over sign/exponent/mantissa bit patterns, backing
/// `prop::num::f32::NORMAL`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalF32;

impl Strategy for NormalF32 {
    type Value = f32;

    fn sample_value(&self, rng: &mut StdRng) -> f32 {
        let sign = (rng.gen::<u32>() & 1) << 31;
        let exp = rng.gen_range(1u32..=254) << 23;
        let mantissa = rng.gen::<u32>() >> 9;
        f32::from_bits(sign | exp | mantissa)
    }
}

/// Strategy over every normal `f64`, backing `prop::num::f64::NORMAL`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalF64;

impl Strategy for NormalF64 {
    type Value = f64;

    fn sample_value(&self, rng: &mut StdRng) -> f64 {
        let sign = (rng.gen::<u64>() & 1) << 63;
        let exp = rng.gen_range(1u64..=2046) << 52;
        let mantissa = rng.gen::<u64>() >> 12;
        f64::from_bits(sign | exp | mantissa)
    }
}
