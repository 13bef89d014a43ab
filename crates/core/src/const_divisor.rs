//! Const-evaluated divisors: the paper's *compile-time constant* case,
//! expressed as Rust `const fn`.
//!
//! When the divisor is a literal in the source, the reciprocal can be
//! computed during compilation — exactly what §10 does inside GCC. These
//! types run the planner's own `const fn` Figure 4.2 decision (over the
//! `u128` Figure 6.2 in [`plan`](crate::plan)) and store its
//! [`UdivStrategy`] at their native word, so `CONST_BY10.divide(x)` has
//! *zero* runtime setup and the constants can live in `static`s without
//! `OnceLock`.
//!
//! (The generic [`UnsignedDivisor`](crate::UnsignedDivisor) cannot be
//! `const fn` on stable Rust — trait methods aren't callable in `const`
//! contexts — so these concrete 32/64-bit variants exist alongside it.)

use crate::plan::{udiv_strategy, UdivStrategy};

/// One const divisor type per word: `$t` is the word, `$wide` the
/// doubleword its `MULUH` products are formed in.
macro_rules! const_divisor {
    ($(#[$doc:meta])* $name:ident, $t:ty, $wide:ty) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name {
            d: $t,
            strategy: UdivStrategy<$t>,
        }

        impl $name {
            /// Computes the reciprocal constants at compile time.
            ///
            /// # Panics
            ///
            /// Panics (at compile time, when used in `const` position) if
            /// `d == 0`.
            pub const fn new(d: $t) -> Self {
                assert!(d != 0, "divisor is zero");
                // The plan's u128 constants narrowed to the word; `map`
                // takes a closure and so is not callable in a `const fn`.
                let strategy = match udiv_strategy(d as u128, <$t>::BITS) {
                    UdivStrategy::Identity => UdivStrategy::Identity,
                    UdivStrategy::Shift { sh } => UdivStrategy::Shift { sh },
                    UdivStrategy::MulShift { m, sh_pre, sh_post } => UdivStrategy::MulShift {
                        m: m as $t,
                        sh_pre,
                        sh_post,
                    },
                    UdivStrategy::MulAddShift {
                        m_minus_pow2n,
                        sh_post,
                    } => UdivStrategy::MulAddShift {
                        m_minus_pow2n: m_minus_pow2n as $t,
                        sh_post,
                    },
                    // Fig 4.2 never selects Li's round-up shape.
                    UdivStrategy::MulRoundUp { .. } => unreachable!(),
                };
                $name { d, strategy }
            }

            /// The divisor this reciprocal was computed for.
            pub const fn divisor(self) -> $t {
                self.d
            }

            /// `MULUH(a, b)`: the high word of the doubleword product.
            const fn muluh(a: $t, b: $t) -> $t {
                ((a as $wide * b as $wide) >> <$t>::BITS) as $t
            }

            /// Computes `n / d` without a division instruction; usable in
            /// `const` contexts itself.
            pub const fn divide(self, n: $t) -> $t {
                match self.strategy {
                    UdivStrategy::Identity => n,
                    UdivStrategy::Shift { sh } => n >> sh,
                    UdivStrategy::MulShift { m, sh_pre, sh_post } => {
                        Self::muluh(m, n >> sh_pre) >> sh_post
                    }
                    UdivStrategy::MulAddShift {
                        m_minus_pow2n,
                        sh_post,
                    } => {
                        let t = Self::muluh(m_minus_pow2n, n);
                        t.wrapping_add(n.wrapping_sub(t) >> 1) >> (sh_post - 1)
                    }
                    // Fig 4.2 never selects Li's round-up shape.
                    UdivStrategy::MulRoundUp { .. } => unreachable!(),
                }
            }

            /// Computes `n % d`.
            pub const fn remainder(self, n: $t) -> $t {
                n.wrapping_sub(self.divide(n).wrapping_mul(self.d))
            }

            /// Computes quotient and remainder together.
            pub const fn div_rem(self, n: $t) -> ($t, $t) {
                let q = self.divide(n);
                (q, n.wrapping_sub(q.wrapping_mul(self.d)))
            }
        }
    };
}

const_divisor!(
    /// A `const`-constructible unsigned 32-bit divisor (Fig 4.2 strategy).
    ///
    /// # Examples
    ///
    /// ```
    /// use magicdiv::ConstU32Divisor;
    ///
    /// // Evaluated entirely at compile time:
    /// const BY10: ConstU32Divisor = ConstU32Divisor::new(10);
    /// static BY7: ConstU32Divisor = ConstU32Divisor::new(7);
    ///
    /// assert_eq!(BY10.divide(1994), 199);
    /// assert_eq!(BY7.divide(u32::MAX), u32::MAX / 7);
    /// assert_eq!(BY10.div_rem(1234), (123, 4));
    /// ```
    ConstU32Divisor,
    u32,
    u64
);

const_divisor!(
    /// A `const`-constructible unsigned 64-bit divisor.
    ///
    /// # Examples
    ///
    /// ```
    /// use magicdiv::ConstU64Divisor;
    ///
    /// const BY1E9_7: ConstU64Divisor = ConstU64Divisor::new(1_000_000_007);
    /// assert_eq!(BY1E9_7.divide(u64::MAX), u64::MAX / 1_000_000_007);
    /// // Even in const position:
    /// const Q: u64 = BY1E9_7.divide(123_456_789_012_345);
    /// assert_eq!(Q, 123_456_789_012_345 / 1_000_000_007);
    /// ```
    ConstU64Divisor,
    u64,
    u128
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::UdivPlan;
    use crate::testkit::splitmix;
    use crate::UnsignedDivisor;

    #[test]
    fn const_u32_matches_runtime_exhaustive_divisor_sweep() {
        let mut d = 1u32;
        while d < 100_000 {
            let cd = ConstU32Divisor::new(d);
            let rd = UnsignedDivisor::<u32>::new(d).unwrap();
            for n in [
                0u32,
                1,
                d - 1,
                d,
                d + 1,
                u32::MAX / 2,
                u32::MAX - 1,
                u32::MAX,
            ] {
                assert_eq!(cd.divide(n), rd.divide(n), "n={n} d={d}");
                assert_eq!(cd.remainder(n), n % d, "n={n} d={d}");
            }
            d = d.wrapping_mul(3).wrapping_add(1);
        }
    }

    #[test]
    fn const_u32_exhaustive_u8_range() {
        for d in 1u32..=1024 {
            let cd = ConstU32Divisor::new(d);
            for n in (0u32..=66_000).step_by(7) {
                assert_eq!(cd.divide(n), n / d, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn const_u64_matches_runtime() {
        for d in [
            1u64,
            2,
            3,
            7,
            10,
            14,
            641,
            274177,
            1_000_000_007,
            u64::MAX / 3,
            u64::MAX - 1,
            u64::MAX,
            1 << 63,
            (1 << 63) + 1,
        ] {
            let cd = ConstU64Divisor::new(d);
            let rd = UnsignedDivisor::<u64>::new(d).unwrap();
            for n in [
                0u64,
                1,
                d.wrapping_sub(1),
                d,
                d.wrapping_add(1),
                u64::MAX / 2,
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(cd.divide(n), rd.divide(n), "n={n} d={d}");
                assert_eq!(cd.divide(n), n / d, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn const_and_traced_fig_4_2_decisions_agree() {
        // The const decision and UdivPlan::new's traced one must pick the
        // same strategy and constants: every 16-bit d at width 32, then
        // boundary and pseudorandom d at width 64.
        for d in 1u32..=65_535 {
            let plan = UdivPlan::new(u128::from(d), 32).unwrap();
            assert_eq!(
                ConstU32Divisor::new(d).strategy,
                plan.strategy().map(|m| m as u32),
                "d={d}"
            );
        }
        let mut ds: Vec<u64> = vec![1, 3, 7, 10, 641, 274177, u64::MAX / 3, u64::MAX];
        for k in 1..64 {
            ds.extend([(1u64 << k) - 1, 1 << k, (1u64 << k) + 1]);
        }
        let mut state = 0xc0_57d1_u64;
        for _ in 0..20_000 {
            let x = splitmix(&mut state);
            ds.push((x >> (x & 63)).max(1));
        }
        for d in ds {
            let plan = UdivPlan::new(u128::from(d), 64).unwrap();
            assert_eq!(
                ConstU64Divisor::new(d).strategy,
                plan.strategy().map(|m| m as u64),
                "d={d}"
            );
        }
    }

    #[test]
    fn usable_in_const_context() {
        const BY10: ConstU32Divisor = ConstU32Divisor::new(10);
        const Q: u32 = BY10.divide(1994);
        const R: u32 = BY10.remainder(1994);
        assert_eq!((Q, R), (199, 4));
        static BY3: ConstU64Divisor = ConstU64Divisor::new(3);
        assert_eq!(BY3.divide(u64::MAX), u64::MAX / 3);
    }

    #[test]
    fn const_u64_randomized() {
        let mut state = 0xfeed_f00du64;
        for _ in 0..2_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d = state | 1;
            let n = state.rotate_left(17);
            let cd = ConstU64Divisor::new(d);
            assert_eq!(cd.divide(n), n / d, "n={n} d={d}");
            let d_even = state.max(2) & !1;
            let cd = ConstU64Divisor::new(d_even);
            assert_eq!(cd.divide(n), n / d_even, "n={n} d={d_even}");
        }
    }
}
