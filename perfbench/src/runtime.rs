//! The runtime request path: `PlanCache` lookup → guarded divisor
//! construction under the default policy → guarded divide of the batch,
//! plus the output checker and the reference loops of the traced run.

use std::hint::black_box;

use magicdiv::{
    DivPlan, Fault, GuardPolicy, GuardedSignedDivisor, GuardedUnsignedDivisor, PlanCache, SdivPlan,
    SignedDivisor, UdivPlan,
};

use crate::compile::plan_span;
use crate::inputs::TypedDivisor;
use crate::spans::Recorder;

/// Dividends the reference loops divide per sample.
pub const REFERENCE_LEN: usize = 1024;

/// A guarded divisor of one of the runtime types.
#[derive(Debug)]
pub enum Guard {
    /// Unsigned 32-bit.
    U32(GuardedUnsignedDivisor<u32>),
    /// Unsigned 64-bit.
    U64(GuardedUnsignedDivisor<u64>),
    /// Signed 64-bit.
    I64(GuardedSignedDivisor<i64>),
}

impl Guard {
    /// Divides each of `ns` (read as the divisor's type) into `out`.
    pub fn divide_into(&self, ns: &[u64], out: &mut [u64]) {
        let out = &mut out[..ns.len()];
        match self {
            Guard::U32(g) => {
                for (o, &n) in out.iter_mut().zip(ns) {
                    *o = u64::from(g.divide(n as u32));
                }
            }
            Guard::U64(g) => {
                for (o, &n) in out.iter_mut().zip(ns) {
                    *o = g.divide(n);
                }
            }
            Guard::I64(g) => {
                for (o, &n) in out.iter_mut().zip(ns) {
                    *o = g.divide(n as i64) as u64;
                }
            }
        }
    }
}

/// What a request gets from the cache and guard layers.
#[derive(Debug)]
pub struct Served {
    /// The plan the cache returned.
    pub plan: DivPlan,
    /// The guarded divisor built from it.
    pub guard: Guard,
}

/// Looks `d` up in `cache` (the plan family and width follow from its
/// type).
///
/// # Errors
///
/// Whatever the cache reports.
pub fn lookup(cache: &PlanCache, d: TypedDivisor) -> Result<DivPlan, Fault> {
    match d {
        TypedDivisor::U32(v) => cache.udiv(u128::from(v), 32).map(DivPlan::Unsigned),
        TypedDivisor::U64(v) => cache.udiv(u128::from(v), 64).map(DivPlan::Unsigned),
        TypedDivisor::I64(v) => cache.sdiv(i128::from(v), 64).map(DivPlan::Signed),
    }
}

/// How a request obtains its guarded divisor; [`serve`] in the
/// benchmark, a fault-injecting stand-in in tests of the checker.
pub type ServeFn = fn(&PlanCache, TypedDivisor, &mut Recorder) -> Result<Served, Fault>;

/// Looks `d` up in `cache` and wraps the plan in a guarded divisor
/// under the default policy, with a span around each call. The lookup
/// span is named `cache.hit` or `cache.miss` after the fact.
///
/// # Errors
///
/// Whatever the cache or the guard's construction probe reports.
pub fn serve(cache: &PlanCache, d: TypedDivisor, rec: &mut Recorder) -> Result<Served, Fault> {
    let hits = if rec.enabled() { cache.stats().hits } else { 0 };
    rec.open("cache.lookup");
    let plan = lookup(cache, d);
    let outcome = if rec.enabled() && cache.stats().hits > hits {
        "cache.hit"
    } else {
        "cache.miss"
    };
    rec.close_as(Some(outcome), 1);
    let plan = plan?;
    rec.open("guard.construct");
    let policy = GuardPolicy::default();
    let guard = match (d, &plan) {
        (TypedDivisor::U32(_), DivPlan::Unsigned(p)) => {
            GuardedUnsignedDivisor::from_plan(p, &policy).map(Guard::U32)
        }
        (TypedDivisor::U64(_), DivPlan::Unsigned(p)) => {
            GuardedUnsignedDivisor::from_plan(p, &policy).map(Guard::U64)
        }
        (_, DivPlan::Signed(p)) => GuardedSignedDivisor::from_plan(p, &policy).map(Guard::I64),
        _ => unreachable!("lookup returns the divisor's family"),
    };
    rec.close();
    Ok(Served {
        plan,
        guard: guard?,
    })
}

/// Divides `ns` with the guard into `out`, inside a `guard.divide` span
/// counting one item per dividend.
pub fn divide(served: &Served, ns: &[u64], out: &mut [u64], rec: &mut Recorder) {
    rec.open("guard.divide");
    served.guard.divide_into(ns, out);
    rec.close_as(None, ns.len() as u64);
}

/// The quotient native division gives for dividend `n` (read as `d`'s
/// type), as a `u64` bit pattern.
pub fn native(d: TypedDivisor, n: u64) -> u64 {
    match d {
        TypedDivisor::U32(v) => u64::from(n as u32 / v),
        TypedDivisor::U64(v) => n / v,
        // |v| >= 2, so MIN / -1 cannot occur.
        TypedDivisor::I64(v) => (n as i64 / v) as u64,
    }
}

/// Compares every quotient in `out` with native division; returns the
/// number of wrong ones.
pub fn check(d: TypedDivisor, ns: &[u64], out: &[u64]) -> u64 {
    ns.iter()
        .zip(out)
        .filter(|&(&n, &q)| native(d, n) != q)
        .count() as u64
}

/// Times, on `window`, the bare plan-backed kernel (`kernel.divide`),
/// native division (`hw.divide`), and one direct plan build
/// (`plan.build.w32`/`w64`), inside a `reference` root span, so none of
/// it counts towards a request.
pub fn reference(served: &Served, d: TypedDivisor, window: &[u64], rec: &mut Recorder) {
    let mut sink = 0u64;
    rec.open("reference");
    rec.open("kernel.divide");
    match (&served.guard, &served.plan) {
        (Guard::U32(g), _) => {
            for &n in window {
                sink ^= u64::from(g.inner().divide(n as u32));
            }
        }
        (Guard::U64(g), _) => {
            for &n in window {
                sink ^= g.inner().divide(n);
            }
        }
        (Guard::I64(_), DivPlan::Signed(p)) => {
            let k = SignedDivisor::<i64>::from_plan(p);
            for &n in window {
                sink ^= k.divide(n as i64) as u64;
            }
        }
        _ => unreachable!("a signed guard always holds a signed plan"),
    }
    rec.close_as(None, window.len() as u64);
    rec.open("hw.divide");
    let dv = black_box(d);
    match dv {
        TypedDivisor::U32(v) => {
            for &n in window {
                sink ^= u64::from(n as u32 / v);
            }
        }
        TypedDivisor::U64(v) => {
            for &n in window {
                sink ^= n / v;
            }
        }
        TypedDivisor::I64(v) => {
            for &n in window {
                sink ^= (n as i64 / v) as u64;
            }
        }
    }
    rec.close_as(None, window.len() as u64);
    rec.open(plan_span(d.width()));
    let built = match d {
        TypedDivisor::U32(v) => UdivPlan::new(u128::from(v), 32).map(DivPlan::Unsigned),
        TypedDivisor::U64(v) => UdivPlan::new(u128::from(v), 64).map(DivPlan::Unsigned),
        TypedDivisor::I64(v) => SdivPlan::new(i128::from(v), 64).map(DivPlan::Signed),
    };
    rec.close();
    black_box((sink, built.ok()));
    rec.close();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_type_serves_and_checks_clean() {
        let cache = PlanCache::new(16);
        let mut rec = Recorder::new(true);
        let ns = [0u64, 1, 7, 1 << 40, u64::MAX, (-9i64) as u64];
        let mut out = [0u64; 6];
        for d in [
            TypedDivisor::U32(7),
            TypedDivisor::U64(10),
            TypedDivisor::I64(-3),
            TypedDivisor::U64(1 << 20),
        ] {
            for _ in 0..2 {
                let s = serve(&cache, d, &mut rec).expect("valid divisor");
                divide(&s, &ns, &mut out, &mut rec);
                assert_eq!(check(d, &ns, &out), 0, "{d:?}");
                reference(&s, d, &ns, &mut rec);
            }
        }
        assert_eq!(rec.tally("cache.miss").spans, 4);
        assert_eq!(rec.tally("cache.hit").spans, 4);
        assert_eq!(rec.tally("guard.divide").items, 48);
        assert_eq!(rec.tally("plan.build.w32").spans, 2);
    }
}
