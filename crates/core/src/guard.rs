//! Guarded execution: self-verifying divisors with graceful degradation
//! to hardware division.
//!
//! The planning layer is proven correct at build time (mutation-tested
//! oracle, tournament certification), but nothing there defends the
//! *runtime* path: a corrupted magic constant — one flipped bit in a
//! multiplier sitting in live memory — silently yields wrong quotients,
//! and the optimal-bounds analysis (Lemire–Bartlett–Kaser, arXiv
//! 2012.12369) shows many winning constants sit exactly one bit from
//! incorrectness. This module wraps every divisor family in one
//! [`Guarded<F>`](Guarded) guard with a three-state machine:
//!
//! * **Verified** — construction ran a self-verification probe (boundary
//!   plus seeded-random witnesses, each checked against native
//!   division); execution trusts the plan with zero per-call overhead;
//! * **Hardened** — execution additionally cross-checks every
//!   `sample_every`-th result against native division;
//! * **Demoted** — a cross-check mismatched: the instance permanently
//!   falls back to native (hardware) division, emits a
//!   `guard.demotion` trace event and charges the process-wide
//!   [`FaultBudget`]. The mismatching call itself already returns the
//!   *correct* (native) result — a detected fault is never served.
//!
//! The §4–§9 families share that runtime contract, so the state machine
//! is written once. What differs per family — plan and constructor,
//! native reference, probe witnesses, event shape name — sits behind
//! the sealed [`GuardFamily`] trait, implemented for the five
//! plan-backed divisors; [`GuardedUnsignedDivisor`],
//! [`GuardedSignedDivisor`], [`GuardedFloorDivisor`],
//! [`GuardedExactDivisor`] and [`GuardedDwordDivisor`] name the five
//! instances.
//!
//! The [`FaultBudget`] is a circuit breaker: once the configured number
//! of demotions is spent, further guarded constructions skip the probe
//! and start out demoted (`guard.circuit_open`), on the theory that a
//! process whose plan constants keep failing has a systemic memory
//! problem and should serve everything through hardware division until
//! it is recycled.
//!
//! # Examples
//!
//! ```
//! use magicdiv::guard::{GuardPolicy, GuardState, GuardedUnsignedDivisor};
//!
//! let by7 = GuardedUnsignedDivisor::<u32>::new(7)?;
//! assert_eq!(by7.state(), GuardState::Verified);
//! assert_eq!(by7.divide(1000), 142);
//!
//! // Every family runs through the same guard.
//! use magicdiv::{guard::Guarded, SignedDivisor};
//! let by_minus7 = Guarded::<SignedDivisor<i32>>::new(-7)?;
//! assert_eq!(by_minus7.divide(100), -14);
//!
//! // A corrupted plan is caught by the construction probe: this one
//! // claims d = 7 is a power of two.
//! use magicdiv::plan::{UdivPlan, UdivStrategy};
//! let bad = UdivPlan::from_raw(7, 32, UdivStrategy::Shift { sh: 3 });
//! let err = GuardedUnsignedDivisor::<u32>::from_plan(&bad, &GuardPolicy::default());
//! assert!(err.is_err(), "probe must reject the wrong strategy");
//! # Ok::<(), magicdiv::Fault>(())
//! ```

use core::convert::Infallible;
use core::fmt::Debug;
use core::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use magicdiv_dword::{DWord, Limb};

use crate::cache::CachedPlan;
use crate::error::{DwordDivError, Fault, FaultKind, FaultLayer};
use crate::exact::ExactUnsignedDivisor;
use crate::floor::FloorDivisor;
use crate::plan::{DwordPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan};
use crate::signed::SignedDivisor;
use crate::testkit::splitmix;
use crate::udword_div::DwordDivisor;
use crate::unsigned::UnsignedDivisor;
use crate::word::{SWord, UWord};

/// Where a guarded divisor sits in the Verified → Hardened → Demoted
/// state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardState {
    /// The construction probe passed; execution trusts the plan.
    Verified,
    /// Execution cross-checks a sampled fraction of quotients.
    Hardened,
    /// A cross-check failed; every call now uses native division.
    Demoted,
}

impl core::fmt::Display for GuardState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GuardState::Verified => write!(f, "verified"),
            GuardState::Hardened => write!(f, "hardened"),
            GuardState::Demoted => write!(f, "demoted"),
        }
    }
}

/// How a guarded divisor is constructed and executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardPolicy {
    /// Seeded-random witnesses the construction probe adds to the
    /// boundary set.
    pub probe_witnesses: u32,
    /// Cross-check every `sample_every`-th call in hardened mode;
    /// `0` disables runtime checks (the divisor starts Verified),
    /// `1` checks every call.
    pub sample_every: u64,
    /// Seed for the probe's witness generator (deterministic).
    pub seed: u64,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            probe_witnesses: 16,
            sample_every: 0,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl GuardPolicy {
    /// The hardened preset: probe at construction, then cross-check
    /// every `sample_every`-th quotient at runtime.
    pub fn hardened(sample_every: u64) -> Self {
        GuardPolicy {
            sample_every: sample_every.max(1),
            ..GuardPolicy::default()
        }
    }
}

/// Process-wide demotion budget — the circuit breaker for guarded
/// execution.
///
/// Every demotion is recorded here; once `limit` demotions have been
/// spent, [`FaultBudget::exhausted`] turns true and new guarded
/// constructions start out demoted (native division) instead of probing
/// and hardening.
#[derive(Debug)]
pub struct FaultBudget {
    limit: AtomicU64,
    demotions: AtomicU64,
}

/// Default process-wide demotion budget.
pub const DEFAULT_FAULT_BUDGET: u64 = 1024;

impl FaultBudget {
    /// A budget allowing `limit` demotions before the circuit opens.
    pub const fn with_limit(limit: u64) -> Self {
        FaultBudget {
            limit: AtomicU64::new(limit),
            demotions: AtomicU64::new(0),
        }
    }

    /// Demotions recorded so far.
    pub fn demotions(&self) -> u64 {
        self.demotions.load(Ordering::Relaxed)
    }

    /// The configured limit.
    pub fn limit(&self) -> u64 {
        self.limit.load(Ordering::Relaxed)
    }

    /// Reconfigures the limit (e.g. for a chaos run or a test).
    pub fn set_limit(&self, limit: u64) {
        self.limit.store(limit, Ordering::Relaxed);
    }

    /// Whether the circuit is open (budget spent).
    pub fn exhausted(&self) -> bool {
        self.demotions() >= self.limit()
    }

    /// Typed check: `Err` with [`FaultKind::FaultBudgetExhausted`] when
    /// the circuit is open.
    ///
    /// # Errors
    ///
    /// [`FaultKind::FaultBudgetExhausted`] at [`FaultLayer::Guard`].
    pub fn check(&self) -> Result<(), Fault> {
        if self.exhausted() {
            Err(Fault {
                layer: FaultLayer::Guard,
                kind: FaultKind::FaultBudgetExhausted {
                    limit: self.limit(),
                },
                at: None,
            })
        } else {
            Ok(())
        }
    }

    /// Records one demotion, returning the new total. Emits
    /// `guard.circuit_open` when this demotion spends the budget.
    pub fn record_demotion(&self) -> u64 {
        let total = self.demotions.fetch_add(1, Ordering::Relaxed) + 1;
        if total == self.limit() {
            magicdiv_trace::event!("guard.circuit_open", "demotions" => total);
        }
        total
    }

    /// Clears the demotion count (chaos scenarios and tests run many
    /// induced demotions in one process).
    pub fn reset(&self) {
        self.demotions.store(0, Ordering::Relaxed);
    }
}

/// The process-wide [`FaultBudget`] every guarded divisor charges.
pub fn fault_budget() -> &'static FaultBudget {
    static BUDGET: FaultBudget = FaultBudget::with_limit(DEFAULT_FAULT_BUDGET);
    &BUDGET
}

/// 128-bit witness from two splitmix draws.
fn splitmix128(state: &mut u64) -> u128 {
    (u128::from(splitmix(state)) << 64) | u128::from(splitmix(state))
}

/// `count` seeded-random 128-bit probe draws for the divisor whose bit
/// pattern is `d_bits`.
fn draws(policy: &GuardPolicy, d_bits: u128, count: u32) -> impl Iterator<Item = u128> {
    let mut rng = policy.seed ^ d_bits as u64;
    (0..count).map(move |_| splitmix128(&mut rng))
}

const STATE_VERIFIED: u8 = 0;
const STATE_HARDENED: u8 = 1;
const STATE_DEMOTED: u8 = 2;

/// Builds the [`Fault`] a failed self-check reports.
fn self_check_fault(n: u128, got: u128, want: u128) -> Fault {
    Fault {
        layer: FaultLayer::Guard,
        kind: FaultKind::SelfCheckFailed { n, got, want },
        at: None,
    }
}

/// The self-check fault for witness `n` when `got` and `want` (bit
/// patterns) disagree.
fn mismatch(n: u128, got: u128, want: u128) -> Option<Fault> {
    (got != want).then(|| self_check_fault(n, got, want))
}

/// Checks `fast` against `native` on every witness, in order; the
/// first disagreement is the fault.
fn probe_quotients<W: Copy>(
    witnesses: impl IntoIterator<Item = W>,
    bits: impl Fn(W) -> u128,
    fast: impl Fn(W) -> W,
    native: impl Fn(W) -> W,
) -> Result<(), Fault> {
    witnesses
        .into_iter()
        .find_map(|n| mismatch(bits(n), bits(fast(n)), bits(native(n))))
        .map_or(Ok(()), Err)
}

/// Unwraps a result that cannot fail.
fn total<R>(r: Result<R, Infallible>) -> R {
    let Ok(r) = r;
    r
}

// ---------------------------------------------------------------------------
// Native references — independent of the guarded constants
// ---------------------------------------------------------------------------

/// Native unsigned division.
fn native_udiv<T: UWord>(n: T, d: T) -> T {
    n.checked_div(d).unwrap_or(T::ZERO) // d != 0 by construction
}

/// Native unsigned remainder.
fn native_urem<T: UWord>(n: T, d: T) -> T {
    n.wrapping_sub(native_udiv(n, d).wrapping_mul(d))
}

/// Native truncating division with hardware wrap on `MIN / -1`.
fn native_trunc<S: SWord>(n: S, d: S) -> S {
    if n == S::MIN && d == S::MINUS_ONE {
        return S::MIN;
    }
    S::from_i128_truncate(n.to_i128() / d.to_i128())
}

/// Native floor division with hardware wrap on `MIN / -1`.
fn native_floor<S: SWord>(n: S, d: S) -> S {
    if n == S::MIN && d == S::MINUS_ONE {
        return S::MIN;
    }
    let (ni, di) = (n.to_i128(), d.to_i128());
    let q = ni / di;
    let r = ni % di;
    if r != 0 && (r < 0) != (di < 0) {
        S::from_i128_truncate(q - 1)
    } else {
        S::from_i128_truncate(q)
    }
}

/// Portable doubleword reference: the shift-subtract division of
/// [`magicdiv_dword`], independent of the Figure 8.1 constants.
fn native_dword<T: UWord>(n: DWord<T>, d: T) -> Result<(T, T), DwordDivError> {
    if n.hi() >= d {
        return Err(DwordDivError::QuotientOverflow);
    }
    let (q, r) = n
        .div_rem_limb(d)
        .unwrap_or((DWord::from_lo(T::ZERO), T::ZERO));
    Ok((q.lo(), r))
}

/// Signed word as its zero-extended bit pattern.
fn sbits<S: SWord>(x: S) -> u128 {
    x.as_unsigned().to_u128()
}

/// Signed word from the low bits of a 128-bit pattern.
fn from_sbits<S: SWord>(u: u128) -> S {
    S::from_unsigned(<S::Unsigned as Limb>::from_u128_truncate(u))
}

// ---------------------------------------------------------------------------
// Divisor families
// ---------------------------------------------------------------------------

mod sealed {
    pub trait Sealed {}
}

/// A divisor family [`Guarded`] can wrap. Sealed: implemented only for
/// [`UnsignedDivisor`] (§4), [`SignedDivisor`] (§5), [`FloorDivisor`]
/// (§6), [`ExactUnsignedDivisor`] (§9) and [`DwordDivisor`] (§8).
///
/// Each family supplies its plan and constructor, its construction
/// probe (boundary plus seeded-random witnesses, checked against the
/// family's native reference) and the names its trace events carry.
pub trait GuardFamily: sealed::Sealed + Sized {
    /// The word the divisor lives in.
    type Word: Copy + Debug;
    /// The plan the family is built from; its [`CachedPlan::build`] is
    /// the family's plan constructor.
    type Plan: CachedPlan;
    /// Shape name carried by `guard.probe` and `guard.demotion` events.
    const SHAPE: &'static str;
    /// Word width in bits.
    const BITS: u32;
    /// `d` widened to the divisor the plan constructor takes; also the
    /// key a `guard.demotion` event carries.
    fn widen(d: Self::Word) -> <Self::Plan as CachedPlan>::Divisor;
    /// Builds the fast divisor from `plan`.
    fn from_plan(plan: &Self::Plan) -> Self;
    /// The divisor `plan` was built for: the guard keeps its own copy,
    /// apart from the constants it guards.
    fn plan_divisor(plan: &Self::Plan) -> Self::Word;
    /// The construction probe: checks boundary and seeded-random
    /// witnesses against the native reference.
    ///
    /// # Errors
    ///
    /// [`FaultKind::SelfCheckFailed`] at the first witness the plan gets
    /// wrong.
    fn probe(&self, d: Self::Word, policy: &GuardPolicy) -> Result<(), Fault>;
}

/// Implements [`GuardFamily`] (and the seal) for one divisor family:
/// `widen` turns `d` into the plan constructor's divisor, `divisor`
/// reads the guard's own copy of `d` off a plan, and the probe is
/// written out per family.
macro_rules! guard_family {
    (
        $family:ident<$w:ident: $bound:ident>, $shape:literal, $plan:ty,
        widen: $widen:expr,
        divisor: $divisor:expr,
        fn probe(&$self:ident, $d:ident, $policy:ident) $probe:block
    ) => {
        impl<$w: $bound> sealed::Sealed for $family<$w> {}

        impl<$w: $bound> GuardFamily for $family<$w> {
            type Word = $w;
            type Plan = $plan;
            const SHAPE: &'static str = $shape;
            const BITS: u32 = $w::BITS;

            fn widen(d: $w) -> <$plan as CachedPlan>::Divisor {
                $widen(d)
            }

            fn from_plan(plan: &$plan) -> Self {
                $family::from_plan(plan)
            }

            fn plan_divisor(plan: &$plan) -> $w {
                $divisor(plan)
            }

            fn probe(&$self, $d: $w, $policy: &GuardPolicy) -> Result<(), Fault> $probe
        }
    };
}

guard_family! {
    UnsignedDivisor<T: UWord>, "unsigned", UdivPlan,
    widen: |d: T| d.to_u128(),
    divisor: |plan: &UdivPlan| T::from_u128_truncate(plan.divisor()),
    fn probe(&self, d, policy) {
        let boundary = [
            T::ZERO,
            T::ONE,
            d.wrapping_sub(T::ONE),
            d,
            d.wrapping_add(T::ONE),
            d.wrapping_add(d),
            T::MAX,
            T::MAX.wrapping_sub(T::ONE),
            T::MAX.shr_full(1),
            T::MAX.shr_full(1).wrapping_add(T::ONE),
        ];
        let random = draws(policy, d.to_u128(), policy.probe_witnesses).map(T::from_u128_truncate);
        probe_quotients(
            boundary.into_iter().chain(random),
            T::to_u128,
            |n| self.divide(n),
            |n| native_udiv(n, d),
        )
    }
}

guard_family! {
    SignedDivisor<S: SWord>, "signed", SdivPlan,
    widen: |d: S| d.to_i128(),
    divisor: |plan: &SdivPlan| S::from_i128_truncate(plan.divisor()),
    fn probe(&self, d, policy) {
        let boundary = [
            S::ZERO,
            S::ONE,
            S::MINUS_ONE,
            d,
            d.wrapping_neg(),
            d.wrapping_add(S::ONE),
            d.wrapping_sub(S::ONE),
            S::MIN,
            S::MIN.wrapping_add(S::ONE),
            S::MAX,
            S::MAX.wrapping_sub(S::ONE),
        ];
        let random = draws(policy, sbits(d), policy.probe_witnesses).map(from_sbits);
        probe_quotients(
            boundary.into_iter().chain(random),
            sbits,
            |n| self.divide(n),
            |n| native_trunc(n, d),
        )
    }
}

guard_family! {
    FloorDivisor<S: SWord>, "floor", FloorPlan,
    widen: |d: S| d.to_i128(),
    divisor: |plan: &FloorPlan| S::from_i128_truncate(plan.divisor()),
    fn probe(&self, d, policy) {
        let boundary = [
            S::ZERO,
            S::ONE,
            S::MINUS_ONE,
            d,
            d.wrapping_neg(),
            d.wrapping_add(S::ONE),
            d.wrapping_sub(S::ONE),
            S::MIN,
            S::MIN.wrapping_add(S::ONE),
            S::MAX,
        ];
        let random = draws(policy, sbits(d), policy.probe_witnesses).map(from_sbits);
        probe_quotients(
            boundary.into_iter().chain(random),
            sbits,
            |n| self.divide(n),
            |n| native_floor(n, d),
        )
    }
}

guard_family! {
    ExactUnsignedDivisor<T: UWord>, "exact", ExactPlan,
    widen: |d: T| d.to_u128(),
    divisor: |plan: &ExactPlan| T::from_u128_truncate(plan.divisor_abs()),
    fn probe(&self, d, policy) {
        let qmax = T::MAX.checked_div(d).unwrap_or(T::ZERO);
        let boundary = [
            T::ZERO,
            T::ONE,
            qmax,
            qmax.shr_full(1),
            qmax.wrapping_sub(T::ONE),
        ];
        // Random quotients in 0..=qmax (qmax >= 1 because d <= MAX).
        let random = draws(policy, d.to_u128(), policy.probe_witnesses)
            .map(|r| native_urem(T::from_u128_truncate(r), qmax.wrapping_add(T::ONE)));
        for q in boundary.into_iter().chain(random) {
            let q = if q > qmax { qmax } else { q };
            let n = q.wrapping_mul(d);
            let got = self.divide_exact(n);
            if got != q {
                return Err(self_check_fault(n.to_u128(), got.to_u128(), q.to_u128()));
            }
            if !self.divides(n) {
                return Err(self_check_fault(n.to_u128(), 0, 1));
            }
            // A non-multiple must be rejected (d == 1 divides everything).
            let off = n.wrapping_add(T::ONE);
            if d != T::ONE && native_urem(off, d) != T::ZERO && self.divides(off) {
                return Err(self_check_fault(off.to_u128(), 1, 0));
            }
        }
        Ok(())
    }
}

guard_family! {
    DwordDivisor<T: UWord>, "dword", DwordPlan,
    widen: |d: T| d.to_u128(),
    divisor: |plan: &DwordPlan| T::from_u128_truncate(plan.divisor()),
    fn probe(&self, d, policy) {
        let boundary = [T::ZERO, T::ONE, d.shr_full(1), d.wrapping_sub(T::ONE)];
        let los = [T::ZERO, T::ONE, T::MAX, d.wrapping_sub(T::ONE)];
        let random = draws(policy, d.to_u128(), policy.probe_witnesses.div_ceil(4))
            .map(T::from_u128_truncate);
        for hi in boundary.into_iter().chain(random) {
            if hi >= d {
                continue;
            }
            for &lo in &los {
                let n = DWord::from_parts(hi, lo);
                let got = self.div_rem(n).map_err(|_| {
                    self_check_fault(lo.to_u128(), 0, 1) // spurious overflow
                })?;
                let want = native_dword(n, d).unwrap_or((T::ZERO, T::ZERO));
                if got != want {
                    return Err(self_check_fault(
                        lo.to_u128(),
                        got.0.to_u128(),
                        want.0.to_u128(),
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The guard
// ---------------------------------------------------------------------------

/// A divisor family `F` wrapped in the Verified → Hardened → Demoted
/// guard state machine.
#[derive(Debug)]
pub struct Guarded<F: GuardFamily> {
    inner: F,
    d: F::Word,
    state: AtomicU8,
    calls: AtomicU64,
    sample_every: u64,
}

/// [`UnsignedDivisor`] under the guard (§4).
pub type GuardedUnsignedDivisor<T> = Guarded<UnsignedDivisor<T>>;
/// [`SignedDivisor`] under the guard (§5).
pub type GuardedSignedDivisor<S> = Guarded<SignedDivisor<S>>;
/// [`FloorDivisor`] under the guard (§6).
pub type GuardedFloorDivisor<S> = Guarded<FloorDivisor<S>>;
/// [`ExactUnsignedDivisor`] under the guard (§9). The guarded contract
/// narrows `divide_exact` slightly: its result is only meaningful when
/// `d | n` (as before), and the cross-check only fires on such inputs.
pub type GuardedExactDivisor<T> = Guarded<ExactUnsignedDivisor<T>>;
/// [`DwordDivisor`] under the guard (§8).
pub type GuardedDwordDivisor<T> = Guarded<DwordDivisor<T>>;

impl<F: GuardFamily> Guarded<F> {
    /// Builds and probes a guarded divisor under the default policy
    /// (probe only, no runtime sampling).
    ///
    /// # Errors
    ///
    /// `DivideByZero` for `d == 0`; [`FaultKind::SelfCheckFailed`] when
    /// the probe catches a wrong result.
    pub fn new(d: F::Word) -> Result<Self, Fault> {
        Self::with_policy(d, &GuardPolicy::default())
    }

    /// Builds and probes a guarded divisor under `policy`.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn with_policy(d: F::Word, policy: &GuardPolicy) -> Result<Self, Fault> {
        Self::from_plan(&F::Plan::build(F::widen(d), F::BITS)?, policy)
    }

    /// Wraps an existing plan (e.g. one served by the
    /// [`crate::cache::PlanCache`]), probing its constants first.
    ///
    /// # Errors
    ///
    /// [`FaultKind::SelfCheckFailed`] when any probe witness divides
    /// wrongly — the typical symptom of a corrupted constant.
    ///
    /// # Panics
    ///
    /// Panics when the plan's width differs from the family's word
    /// width (or, for the exact family, when the plan is signed).
    pub fn from_plan(plan: &F::Plan, policy: &GuardPolicy) -> Result<Self, Fault> {
        let this = Self::from_plan_unprobed(plan, policy);
        if this.state() == GuardState::Demoted {
            return Ok(this); // circuit open: native division, no probe
        }
        let outcome = this.inner.probe(this.d, policy);
        magicdiv_trace::event!("guard.probe",
            "shape" => F::SHAPE,
            "width" => F::BITS,
            "witnesses" => policy.probe_witnesses,
            "ok" => if outcome.is_ok() { 1u32 } else { 0u32 });
        outcome.map(|()| this)
    }

    /// Wraps a plan *without* probing it — the entry point
    /// fault-injection harnesses use to smuggle corrupted constants past
    /// construction so the runtime cross-check path can be exercised.
    ///
    /// # Panics
    ///
    /// As [`from_plan`](Self::from_plan).
    pub fn from_plan_unprobed(plan: &F::Plan, policy: &GuardPolicy) -> Self {
        // The initial state honours the circuit breaker.
        let state = if fault_budget().exhausted() {
            magicdiv_trace::event!("guard.circuit_bypass",
                "demotions" => fault_budget().demotions());
            STATE_DEMOTED
        } else if policy.sample_every > 0 {
            STATE_HARDENED
        } else {
            STATE_VERIFIED
        };
        Guarded {
            inner: F::from_plan(plan),
            d: F::plan_divisor(plan),
            state: AtomicU8::new(state),
            calls: AtomicU64::new(0),
            sample_every: policy.sample_every,
        }
    }

    /// The divisor this guard protects.
    #[inline]
    pub fn divisor(&self) -> F::Word {
        self.d
    }

    /// Current position in the state machine.
    pub fn state(&self) -> GuardState {
        match self.state.load(Ordering::Acquire) {
            STATE_VERIFIED => GuardState::Verified,
            STATE_HARDENED => GuardState::Hardened,
            _ => GuardState::Demoted,
        }
    }

    /// The wrapped plan-backed divisor (for introspection).
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// Whether this call should be cross-checked (hardened mode only).
    #[inline]
    fn should_check(&self) -> bool {
        if self.state.load(Ordering::Acquire) != STATE_HARDENED {
            return false;
        }
        let c = self.calls.fetch_add(1, Ordering::Relaxed);
        self.sample_every == 1 || c % self.sample_every == 0
    }

    /// Transitions to Demoted, charges the budget, emits the typed
    /// `guard.demotion` event carrying the offending divisor key `d`
    /// (the flight recorder's black-box dumps key on it).
    fn demote(&self, fault: &Fault) {
        self.state.store(STATE_DEMOTED, Ordering::Release);
        fault_budget().record_demotion();
        magicdiv_trace::event!("guard.demotion",
            "shape" => F::SHAPE,
            "width" => F::BITS,
            "d" => F::widen(self.d),
            "why" => format!("{fault}"));
    }

    /// The state machine every guarded operation runs through: serves
    /// `native()` once demoted; otherwise serves `fast()`, and on a
    /// sampled call where `check(served, native)` reports a fault,
    /// demotes and serves the native result instead — a detected fault
    /// is never served. A `fast()` error returns before sampling.
    #[inline]
    fn serve<R: Copy, E>(
        &self,
        fast: impl FnOnce() -> Result<R, E>,
        native: impl Fn() -> Result<R, E>,
        check: impl FnOnce(R, R) -> Option<Fault>,
    ) -> Result<R, E> {
        if self.state.load(Ordering::Acquire) == STATE_DEMOTED {
            return native();
        }
        let got = fast()?;
        if self.should_check() {
            let want = native()?;
            if let Some(fault) = check(got, want) {
                self.demote(&fault);
                return Ok(want);
            }
        }
        Ok(got)
    }
}

impl<T: UWord> Guarded<UnsignedDivisor<T>> {
    /// Computes `⌊n / d⌋`. In hardened mode a sampled fraction of calls
    /// is cross-checked against native division; a mismatch demotes the
    /// instance and the *native* quotient is returned, so a detected
    /// fault is never served.
    #[inline]
    pub fn divide(&self, n: T) -> T {
        total(self.serve(
            || Ok(self.inner.divide(n)),
            || Ok(native_udiv(n, self.d)),
            |q, want| mismatch(n.to_u128(), q.to_u128(), want.to_u128()),
        ))
    }

    /// Computes `n mod d` with the same guard semantics as
    /// [`divide`](Self::divide).
    pub fn remainder(&self, n: T) -> T {
        n.wrapping_sub(self.divide(n).wrapping_mul(self.d))
    }

    /// Quotient and remainder together.
    pub fn div_rem(&self, n: T) -> (T, T) {
        let q = self.divide(n);
        (q, n.wrapping_sub(q.wrapping_mul(self.d)))
    }
}

impl<S: SWord> Guarded<SignedDivisor<S>> {
    /// Computes `TRUNC(n / d)` with guard semantics (see
    /// [`GuardedUnsignedDivisor::divide`]).
    #[inline]
    pub fn divide(&self, n: S) -> S {
        total(self.serve(
            || Ok(self.inner.divide(n)),
            || Ok(native_trunc(n, self.d)),
            |q, want| mismatch(sbits(n), sbits(q), sbits(want)),
        ))
    }

    /// Computes the remainder (sign of the dividend) with guard
    /// semantics.
    pub fn remainder(&self, n: S) -> S {
        n.wrapping_sub(self.divide(n).wrapping_mul(self.d))
    }
}

impl<S: SWord> Guarded<FloorDivisor<S>> {
    /// Computes `⌊n / d⌋` (round toward `-∞`) with guard semantics.
    #[inline]
    pub fn divide(&self, n: S) -> S {
        total(self.serve(
            || Ok(self.inner.divide(n)),
            || Ok(native_floor(n, self.d)),
            |q, want| mismatch(sbits(n), sbits(q), sbits(want)),
        ))
    }

    /// Computes `n mod d` (sign of the divisor) with guard semantics.
    pub fn modulus(&self, n: S) -> S {
        n.wrapping_sub(self.divide(n).wrapping_mul(self.d))
    }
}

impl<T: UWord> Guarded<ExactUnsignedDivisor<T>> {
    /// Computes `n / d` for `n` a multiple of `d`, with guard semantics.
    /// Inputs that are not multiples return native `n / d` (demoted) or
    /// the inner garbage value (verified), exactly as the unguarded
    /// contract documents; the cross-check skips them.
    #[inline]
    pub fn divide_exact(&self, n: T) -> T {
        total(self.serve(
            || Ok(self.inner.divide_exact(n)),
            || Ok(native_udiv(n, self.d)),
            |q, want| {
                mismatch(n.to_u128(), q.to_u128(), want.to_u128())
                    .filter(|_| native_urem(n, self.d) == T::ZERO)
            },
        ))
    }

    /// Tests `d | n` with guard semantics.
    #[inline]
    pub fn divides(&self, n: T) -> bool {
        total(self.serve(
            || Ok(self.inner.divides(n)),
            || Ok(native_urem(n, self.d) == T::ZERO),
            |verdict, want| mismatch(n.to_u128(), u128::from(verdict), u128::from(want)),
        ))
    }
}

impl<T: UWord> Guarded<DwordDivisor<T>> {
    /// Divides the doubleword `n` with guard semantics.
    ///
    /// # Errors
    ///
    /// [`DwordDivError::QuotientOverflow`] when `HIGH(n) >= d`, exactly
    /// as the unguarded divisor.
    #[inline]
    pub fn div_rem(&self, n: DWord<T>) -> Result<(T, T), DwordDivError> {
        self.serve(
            || self.inner.div_rem(n),
            || native_dword(n, self.d),
            |got, want| {
                (got != want)
                    .then(|| self_check_fault(n.lo().to_u128(), got.0.to_u128(), want.0.to_u128()))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::corrupt_udiv_plan;

    #[test]
    fn verified_divisors_divide_correctly() {
        let g = GuardedUnsignedDivisor::<u32>::new(7).expect("probe passes");
        assert_eq!(g.state(), GuardState::Verified);
        for n in [0u32, 1, 6, 7, 8, 700, u32::MAX] {
            assert_eq!(g.divide(n), n / 7);
            assert_eq!(g.remainder(n), n % 7);
        }
        let s = GuardedSignedDivisor::<i32>::new(-7).expect("probe passes");
        for n in [0i32, 1, -1, 100, -100, i32::MIN, i32::MAX] {
            assert_eq!(s.divide(n), n.wrapping_div(-7));
        }
        let f = GuardedFloorDivisor::<i32>::new(10).expect("probe passes");
        assert_eq!(f.divide(-1), -1);
        assert_eq!(f.modulus(-1), 9);
        let e = GuardedExactDivisor::<u32>::new(12).expect("probe passes");
        assert_eq!(e.divide_exact(144), 12);
        assert!(e.divides(144));
        assert!(!e.divides(145));
        let dd = GuardedDwordDivisor::<u32>::new(10).expect("probe passes");
        let (q, r) = dd.div_rem(DWord::from_parts(7, 6)).expect("fits");
        assert_eq!(
            (q as u64, r as u64),
            (((7u64 << 32) + 6) / 10, ((7u64 << 32) + 6) % 10)
        );
    }

    #[test]
    fn zero_divisor_is_a_typed_fault() {
        let err = GuardedUnsignedDivisor::<u32>::new(0).unwrap_err();
        assert_eq!(err.layer, FaultLayer::Plan);
        assert_eq!(err.kind, FaultKind::DivideByZero);
    }

    #[test]
    fn corrupted_plan_fails_the_probe() {
        let bad = corrupt_udiv_plan(&UdivPlan::new(10, 32).expect("plan"), 7);
        let err = GuardedUnsignedDivisor::<u32>::from_plan(&bad, &GuardPolicy::default())
            .expect_err("probe must catch the flip");
        assert_eq!(err.layer, FaultLayer::Guard);
        assert!(matches!(err.kind, FaultKind::SelfCheckFailed { .. }));
    }

    #[test]
    fn hardened_demotion_returns_correct_quotients_forever() {
        fault_budget().reset();
        let before = fault_budget().demotions();
        let bad = corrupt_udiv_plan(&UdivPlan::new(10, 32).expect("plan"), 29);
        let g = GuardedUnsignedDivisor::<u32>::from_plan_unprobed(&bad, &GuardPolicy::hardened(1));
        assert_eq!(g.state(), GuardState::Hardened);
        // Every call must come back correct even while the plan is bad.
        for n in [u32::MAX, 12345, 0, 10, 99] {
            assert_eq!(g.divide(n), n / 10, "n={n}");
        }
        assert_eq!(g.state(), GuardState::Demoted);
        assert!(fault_budget().demotions() > before);
    }

    /// Builds a family's guard under `hardened(1)`, so every call below
    /// is cross-checked, and asserts it starts Hardened.
    fn hardened<F: GuardFamily>(d: F::Word) -> Guarded<F> {
        let g = Guarded::<F>::with_policy(d, &GuardPolicy::hardened(1))
            .unwrap_or_else(|e| panic!("{} d={d:?}: {e}", F::SHAPE));
        assert_eq!(g.state(), GuardState::Hardened, "{} d={d:?}", F::SHAPE);
        g
    }

    /// Every family, hardened to check every call, over every width-8
    /// divisor and every dividend: each output equals native and no
    /// correct plan is ever demoted.
    #[test]
    fn hardened_families_match_native_exhaustively_at_width_8() {
        let families: [fn(u8); 5] = [
            // unsigned
            |d| {
                let g = hardened::<UnsignedDivisor<u8>>(d);
                for n in 0..=u8::MAX {
                    assert_eq!(g.div_rem(n), (n / d, n % d), "d={d} n={n}");
                    assert_eq!(g.remainder(n), n % d, "d={d} n={n}");
                }
                assert_eq!(g.state(), GuardState::Hardened, "d={d}");
            },
            // signed
            |d| {
                let d = d as i8;
                let g = hardened::<SignedDivisor<i8>>(d);
                for n in i8::MIN..=i8::MAX {
                    assert_eq!(g.divide(n), n.wrapping_div(d), "d={d} n={n}");
                    assert_eq!(g.remainder(n), n.wrapping_rem(d), "d={d} n={n}");
                }
                assert_eq!(g.state(), GuardState::Hardened, "d={d}");
            },
            // floor
            |d| {
                let d = d as i8;
                let g = hardened::<FloorDivisor<i8>>(d);
                for n in i8::MIN..=i8::MAX {
                    // Floor in i16, where MIN / -1 cannot overflow; the
                    // cast back wraps like hardware.
                    let (n16, d16) = (i16::from(n), i16::from(d));
                    let r = n16 % d16;
                    let q = n16 / d16 - i16::from(r != 0 && (r < 0) != (d16 < 0));
                    assert_eq!(g.divide(n), q as i8, "d={d} n={n}");
                    assert_eq!(g.modulus(n), (n16 - q * d16) as i8, "d={d} n={n}");
                }
                assert_eq!(g.state(), GuardState::Hardened, "d={d}");
            },
            // exact
            |d| {
                let g = hardened::<ExactUnsignedDivisor<u8>>(d);
                for n in 0..=u8::MAX {
                    assert_eq!(g.divides(n), n % d == 0, "d={d} n={n}");
                    if n % d == 0 {
                        assert_eq!(g.divide_exact(n), n / d, "d={d} n={n}");
                    }
                }
                assert_eq!(g.state(), GuardState::Hardened, "d={d}");
            },
            // dword
            |d| {
                let g = hardened::<DwordDivisor<u8>>(d);
                for hi in 0..d {
                    for lo in 0..=u8::MAX {
                        let wide = u16::from_le_bytes([lo, hi]);
                        let want = ((wide / u16::from(d)) as u8, (wide % u16::from(d)) as u8);
                        let got = g.div_rem(DWord::from_parts(hi, lo));
                        assert_eq!(got, Ok(want), "d={d} hi={hi} lo={lo}");
                    }
                }
                assert_eq!(g.state(), GuardState::Hardened, "d={d}");
            },
        ];
        for check in families {
            for d in 1..=u8::MAX {
                check(d);
            }
        }
    }

    #[test]
    fn budget_check_is_typed() {
        let b = FaultBudget::with_limit(2);
        assert!(b.check().is_ok());
        b.record_demotion();
        b.record_demotion();
        let err = b.check().unwrap_err();
        assert_eq!(err.layer, FaultLayer::Guard);
        assert_eq!(err.kind, FaultKind::FaultBudgetExhausted { limit: 2 });
        b.reset();
        assert!(b.check().is_ok());
    }
}
