//! `CHOOSE_MULTIPLIER` — Figure 6.2 of the paper, generic over the machine
//! word and computed in doubleword arithmetic.
//!
//! This is the public typed API and the planner's Figure 6.2 at width 128,
//! where the `2^(N+l)` numerators overflow `u128`. Plans of width `<= 64`
//! (and the const divisors) run the same selection as a `const fn` in
//! plain `u128` arithmetic inside [`plan`](crate::plan); a unit test there
//! pins the two against each other at `N = 64`.
//!
//! Given a divisor `d` and a precision `prec` (the number of significant
//! dividend bits: `N` for unsigned division, `N - 1` for signed), it selects
//! a multiplier `m` and post-shift `sh_post` such that
//!
//! ```text
//! 2^(N + sh_post) < m * d <= 2^(N + sh_post) * (1 + 2^-prec)
//! ```
//!
//! which by Theorem 4.2 makes `⌊n/d⌋ = ⌊m * n / 2^(N + sh_post)⌋` for all
//! `0 <= n < 2^prec`. The multiplier may need `N + 1` bits, so it is
//! returned as a doubleword.

use magicdiv_dword::{DWord, Limb};

use crate::error::{Fault, FaultKind, FaultLayer};
use crate::word::UWord;

/// The output of [`choose_multiplier`]: the paper's `(m_high, sh_post, l)`
/// triple.
///
/// # Examples
///
/// ```
/// use magicdiv::choose_multiplier;
///
/// // The paper's d = 10, N = 32 example: m = (2^34 + 1)/5, sh_post = 3.
/// let c = choose_multiplier::<u32>(10, 32);
/// assert_eq!(c.multiplier.to_u128(), ((1u128 << 34) + 1) / 5);
/// assert_eq!(c.sh_post, 3);
/// assert_eq!(c.l, 4);
/// // The reduced multiplier fits in a single 32-bit word...
/// assert!(c.multiplier_fits_word());
/// // ...whereas d = 7 famously does not (m = (2^35 + 3)/7 > 2^32).
/// assert!(!choose_multiplier::<u32>(7, 32).multiplier_fits_word());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChosenMultiplier<T: Limb> {
    /// The magic multiplier `m`, up to `N + 1` bits wide.
    pub multiplier: DWord<T>,
    /// The post-shift count applied after taking the high product half.
    pub sh_post: u32,
    /// `⌈log2 d⌉`.
    pub l: u32,
}

impl<T: UWord> ChosenMultiplier<T> {
    /// `true` when the multiplier fits in a single `N`-bit word
    /// (`m < 2^N`) — i.e. the paper's `m >= 2^N` long-sequence case does
    /// *not* apply.
    #[inline]
    pub fn multiplier_fits_word(&self) -> bool {
        // The doc example above shows the d = 10 multiplier; this method is
        // exercised against the paper's d = 7 example in the tests.
        self.multiplier.fits_limb()
    }

    /// The multiplier truncated to one word; meaningful in two cases:
    /// when [`multiplier_fits_word`](Self::multiplier_fits_word) is true it
    /// is `m` itself, otherwise it is the paper's `m - 2^N` bit pattern
    /// used by the `MULUH(m - 2^N, n)` long sequence.
    #[inline]
    pub fn multiplier_low_word(&self) -> T {
        self.multiplier.lo()
    }
}

/// `⌊2^k / d⌋` and the remainder, for `0 < k <= 2N`, entirely in
/// doubleword arithmetic.
///
/// For `k == 2N` the numerator `2^(2N)` overflows a doubleword; we use
/// `⌊(2^(2N) - 1)/d⌋` and patch up the remainder, which is exact because
/// the only divisors with `d | 2^(2N)` are powers of two.
fn div_pow2<T: UWord>(k: u32, d: T) -> (DWord<T>, T) {
    debug_assert!(d != T::ZERO);
    if k < 2 * T::BITS {
        DWord::pow2(k)
            .div_rem_limb(d)
            .expect("divisor checked nonzero")
    } else {
        debug_assert!(k == 2 * T::BITS);
        let (q, r) = DWord::from_parts(T::MAX, T::MAX)
            .div_rem_limb(d)
            .expect("divisor checked nonzero");
        // 2^(2N) = q*d + (r + 1); if r + 1 == d the quotient rounds up.
        if r.wrapping_add(T::ONE) == d {
            (q.wrapping_add_limb(T::ONE), T::ZERO)
        } else {
            (q, r.wrapping_add(T::ONE))
        }
    }
}

/// Figure 6.2: selects the multiplier and shift for dividing by `d` with
/// `prec` bits of dividend precision.
///
/// Postconditions (the paper's comments, all asserted in debug builds):
///
/// * `2^(l-1) <= d < 2^l` (for `d >= 1`);
/// * `0 <= sh_post <= l`;
/// * `2^(N + sh_post) < m * d <= 2^(N + sh_post) * (1 + 2^-prec)`;
/// * if `d < 2^prec` then `m` fits in `max(prec, N - l) + 1` bits.
///
/// # Panics
///
/// Panics when `d == 0` or `prec` is not in `1..=N`.
///
/// # Examples
///
/// ```
/// use magicdiv::choose_multiplier;
///
/// // Signed d = 3 at N = 32 uses prec = 31: m = (2^32 + 2)/3.
/// let c = choose_multiplier::<u32>(3, 31);
/// assert_eq!(c.multiplier.to_u128(), ((1u128 << 32) + 2) / 3);
/// assert_eq!(c.sh_post, 0);
/// ```
pub fn choose_multiplier<T: UWord>(d: T, prec: u32) -> ChosenMultiplier<T> {
    assert!(d != T::ZERO, "choose_multiplier: divisor is zero");
    assert!(
        (1..=T::BITS).contains(&prec),
        "choose_multiplier: prec must be in 1..=N"
    );
    choose_multiplier_unchecked(d, prec)
}

/// The fallible twin of [`choose_multiplier`]: a precision outside the
/// Figure 6.2 precondition `1 <= prec <= N` is reported as a typed
/// planning-layer [`Fault`] instead of a panic, so harness code probing
/// the boundary (and future callers deriving `prec` from untrusted
/// widths) can handle it.
///
/// # Errors
///
/// [`FaultKind::PrecisionOutOfRange`] when `prec` is `0` or greater than
/// `T::BITS`; [`FaultKind::DivideByZero`] when `d == 0`.
///
/// # Examples
///
/// ```
/// use magicdiv::{try_choose_multiplier, FaultKind};
///
/// assert!(try_choose_multiplier::<u32>(10, 32).is_ok());
/// let err = try_choose_multiplier::<u32>(10, 33).unwrap_err();
/// assert_eq!(err.kind, FaultKind::PrecisionOutOfRange { prec: 33, width: 32 });
/// ```
pub fn try_choose_multiplier<T: UWord>(d: T, prec: u32) -> Result<ChosenMultiplier<T>, Fault> {
    if d == T::ZERO {
        return Err(Fault {
            layer: FaultLayer::Plan,
            kind: FaultKind::DivideByZero,
            at: None,
        });
    }
    if !(1..=T::BITS).contains(&prec) {
        return Err(Fault {
            layer: FaultLayer::Plan,
            kind: FaultKind::PrecisionOutOfRange {
                prec,
                width: T::BITS,
            },
            at: None,
        });
    }
    Ok(choose_multiplier_unchecked(d, prec))
}

/// The Figure 6.2 body, preconditions already validated by the caller.
fn choose_multiplier_unchecked<T: UWord>(d: T, prec: u32) -> ChosenMultiplier<T> {
    let n = T::BITS;
    let l = d.ceil_log2();
    let mut sh_post = l;

    // m_low  = ⌊2^(N+l) / d⌋
    // m_high = ⌊(2^(N+l) + 2^(N+l-prec)) / d⌋
    let (mut m_low, r_low) = div_pow2(n + l, d);
    let (q_b, r_b) = div_pow2(n + l - prec, d);
    let mut m_high = m_low.wrapping_add(q_b);
    // Carry from the two remainders.
    let (r_sum, overflow) = r_low.overflowing_add(r_b);
    if overflow || r_sum >= d {
        m_high = m_high.wrapping_add_limb(T::ONE);
    }
    debug_assert!(m_low < m_high, "interval must be non-degenerate");

    // Reduce m/2^sh_post to lowest terms: keep halving while both bounds
    // still straddle an integer.
    while m_low.shr_full(1) < m_high.shr_full(1) && sh_post > 0 {
        m_low = m_low.shr_full(1);
        m_high = m_high.shr_full(1);
        sh_post -= 1;
    }

    let chosen = ChosenMultiplier {
        multiplier: m_high,
        sh_post,
        l,
    };
    debug_assert_postconditions(d, prec, &chosen);
    chosen
}

fn debug_assert_postconditions<T: UWord>(d: T, prec: u32, c: &ChosenMultiplier<T>) {
    if cfg!(debug_assertions) && T::BITS <= 64 {
        let n = T::BITS;
        let d128 = d.to_u128();
        let m = c.multiplier.to_u128();
        assert!(c.sh_post <= c.l);
        // 2^(N+sh_post) < m*d <= 2^(N+sh_post) * (1 + 2^-prec)
        // i.e. 2^(N+sh_post) < m*d and (m*d - 2^(N+sh_post)) * 2^prec <= 2^(N+sh_post)
        // All fit in u256? m*d can be ~2^(2N) <= 2^128 for N=64... may overflow
        // u128 at N=64; only check when safe.
        if n + c.l < 127 {
            let md = m * d128;
            let lhs = 1u128 << (n + c.sh_post);
            assert!(lhs < md, "lower bound violated");
            assert!(md - lhs <= lhs >> prec, "upper bound violated");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle via native u128 arithmetic (valid for N <= 32 here).
    fn oracle_u32(d: u32, prec: u32) -> (u128, u32, u32) {
        let n = 32u32;
        let l = 32 - (d - 1).leading_zeros(); // ceil log2 for d >= 1 (d=1 -> 0)
        let mut sh_post = l;
        let mut m_low = (1u128 << (n + l)) / d as u128;
        let mut m_high = ((1u128 << (n + l)) + (1u128 << (n + l - prec))) / d as u128;
        while m_low / 2 < m_high / 2 && sh_post > 0 {
            m_low /= 2;
            m_high /= 2;
            sh_post -= 1;
        }
        (m_high, sh_post, l)
    }

    #[test]
    fn matches_u128_oracle_for_many_divisors() {
        let mut divisors: Vec<u32> = (1..=1000).collect();
        divisors.extend([
            1023,
            1024,
            1025,
            0x7fff_ffff,
            0x8000_0000,
            0x8000_0001,
            u32::MAX,
            u32::MAX - 1,
            641,
            274177,
            0xcccc_cccd,
        ]);
        for &d in &divisors {
            for prec in [31u32, 32] {
                let c = choose_multiplier::<u32>(d, prec);
                let (m, sh, l) = oracle_u32(d, prec);
                assert_eq!(c.multiplier.to_u128(), m, "m for d={d} prec={prec}");
                assert_eq!(c.sh_post, sh, "sh_post for d={d} prec={prec}");
                assert_eq!(c.l, l, "l for d={d} prec={prec}");
            }
        }
    }

    #[test]
    fn matches_u128_oracle_exhaustively_u16() {
        // Every divisor at N = 16, both precisions (unsigned and signed).
        fn oracle(d: u16, prec: u32) -> (u128, u32) {
            let n = 16u32;
            let l = if d == 1 {
                0
            } else {
                16 - (d - 1).leading_zeros()
            };
            let mut sh_post = l;
            let mut m_low = (1u128 << (n + l)) / d as u128;
            let mut m_high = ((1u128 << (n + l)) + (1u128 << (n + l - prec))) / d as u128;
            while m_low / 2 < m_high / 2 && sh_post > 0 {
                m_low /= 2;
                m_high /= 2;
                sh_post -= 1;
            }
            (m_high, sh_post)
        }
        for d in 1u16..=u16::MAX {
            for prec in [15u32, 16] {
                let c = choose_multiplier::<u16>(d, prec);
                let (m, sh) = oracle(d, prec);
                assert_eq!(c.multiplier.to_u128(), m, "m d={d} prec={prec}");
                assert_eq!(c.sh_post, sh, "sh d={d} prec={prec}");
            }
        }
    }

    #[test]
    fn paper_example_d10_n32() {
        let c = choose_multiplier::<u32>(10, 32);
        assert_eq!(c.multiplier.to_u128(), ((1u128 << 34) + 1) / 5);
        assert_eq!(c.sh_post, 3);
        assert_eq!(c.l, 4);
        assert!(c.multiplier_fits_word());
    }

    #[test]
    fn paper_example_d7_n32_multiplier_exceeds_word() {
        // The paper: d = 7 gives m = (2^35 + 3)/7 > 2^32 — the long
        // sequence of Fig 4.1 is needed.
        let c = choose_multiplier::<u32>(7, 32);
        assert_eq!(c.multiplier.to_u128(), ((1u128 << 35) + 3) / 7);
        assert!(!c.multiplier_fits_word());
        assert_eq!(c.sh_post, 3);
    }

    #[test]
    fn paper_example_d3_signed() {
        let c = choose_multiplier::<u32>(3, 31);
        assert_eq!(c.multiplier.to_u128(), ((1u128 << 32) + 2) / 3);
        assert_eq!(c.sh_post, 0);
    }

    #[test]
    fn paper_example_signed_mod10() {
        // §6 example: the signed mod-10 code multiplies by (2^33 + 3)/5 and
        // shifts by 2 — that is choose_multiplier(10, 31) after reduction.
        let c = choose_multiplier::<u32>(10, 31);
        assert_eq!(c.multiplier.to_u128(), ((1u128 << 33) + 3) / 5);
        assert_eq!(c.sh_post, 2);
    }

    #[test]
    fn d641_has_zero_final_shift() {
        // The paper notes d = 641 on a 32-bit machine ends with shift 0
        // after reducing an even multiplier to lowest terms (641 divides
        // 2^32 + 1, so the reciprocal has a tiny odd part).
        let c = choose_multiplier::<u32>(641, 32);
        assert!(c.multiplier_fits_word());
        assert_eq!(c.sh_post, 0, "m={:?}", c.multiplier);
        // 641 * 6700417 = 2^32 + 1, so the fully reduced multiplier is 6700417.
        assert_eq!(c.multiplier.to_u128(), 6700417);
    }

    #[test]
    fn d274177_on_64_bit() {
        // Likewise 274177 | 2^64 + 1.
        let c = choose_multiplier::<u64>(274177, 64);
        assert_eq!(c.sh_post, 0);
        assert!(c.multiplier_fits_word());
        // 274177 * 67280421310721 = 2^64 + 1.
        assert_eq!(c.multiplier.to_u128(), 67280421310721);
    }

    #[test]
    fn power_of_two_divisors() {
        for k in 0..32 {
            let c = choose_multiplier::<u32>(1u32 << k, 32);
            assert_eq!(c.l, k);
        }
    }

    #[test]
    fn d1_yields_l0() {
        let c = choose_multiplier::<u32>(1, 32);
        assert_eq!(c.l, 0);
        assert_eq!(c.sh_post, 0);
        // m = 2^N + 1 halved zero times... with l = 0: m_high = (2^32 + 1)/1.
        assert_eq!(c.multiplier.to_u128(), (1u128 << 32) + 1);
    }

    #[test]
    fn max_divisor_n8_exhaustive_bounds() {
        // Check the Theorem 4.2 style bound directly for every d at N = 8.
        for d in 1u8..=u8::MAX {
            let c = choose_multiplier::<u8>(d, 8);
            let m = c.multiplier.to_u128();
            let lhs = 1u128 << (8 + c.sh_post);
            assert!(lhs < m * d as u128, "d={d}");
            assert!(m * d as u128 <= lhs + (lhs >> 8), "d={d}");
            // And the actual division property for all n.
            for n in 0u8..=u8::MAX {
                let q = (m * n as u128) >> (8 + c.sh_post);
                assert_eq!(q as u8, n / d, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn works_at_n128() {
        let c = choose_multiplier::<u128>(10, 128);
        // m * 10 must straddle 2^(128 + sh_post).
        assert_eq!(c.l, 4);
        // Spot check correctness by dividing a few n: the product m*n is a
        // triple-word value carry*2^256 + dword; q = value >> (128 + sh_post)
        // = (carry*2^128 + dword.hi) >> sh_post by nested floor division.
        for n in [0u128, 1, 9, 10, 99, 12345678901234567890, u128::MAX] {
            let (low2, carry) = c.multiplier.mul_limb(n);
            let q_dword = DWord::from_parts(carry, low2.hi()).shr_full(c.sh_post);
            assert!(q_dword.fits_limb());
            assert_eq!(q_dword.lo(), n / 10, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "divisor is zero")]
    fn zero_divisor_panics() {
        let _ = choose_multiplier::<u32>(0, 32);
    }

    #[test]
    #[should_panic(expected = "prec must be in")]
    fn zero_prec_panics() {
        let _ = choose_multiplier::<u32>(3, 0);
    }

    #[test]
    fn try_variant_reports_typed_faults_at_the_precision_boundary() {
        use crate::error::{FaultKind, FaultLayer};
        // prec == N is the last legal precision; N + 1 is the first
        // illegal one, and 0 falls off the other end.
        let ok = try_choose_multiplier::<u32>(10, 32).expect("prec == N is legal");
        assert_eq!(ok, choose_multiplier::<u32>(10, 32));
        let err = try_choose_multiplier::<u32>(10, 33).unwrap_err();
        assert_eq!(err.layer, FaultLayer::Plan);
        assert_eq!(
            err.kind,
            FaultKind::PrecisionOutOfRange {
                prec: 33,
                width: 32
            }
        );
        assert_eq!(err.to_string(), "plan fault: precision 33 outside 1..=32");
        let err = try_choose_multiplier::<u32>(10, 0).unwrap_err();
        assert_eq!(
            err.kind,
            FaultKind::PrecisionOutOfRange { prec: 0, width: 32 }
        );
        let err = try_choose_multiplier::<u32>(0, 32).unwrap_err();
        assert_eq!(err.kind, FaultKind::DivideByZero);
    }
}
