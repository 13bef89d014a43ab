//! Seeded input generation for the four workloads.
//!
//! Everything the code under test sees is produced here from the
//! `--seed` argument alone: the same seed gives byte-identical inputs.

/// splitmix64: small, fast and good enough to draw benchmark inputs.
/// Kept here rather than taken from `magicdiv-bench` so the benchmark
/// depends only on the crates it measures.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of `seed`, so that two
    /// workloads sharing a stream name (the hot divisor set) draw the
    /// same values.
    pub fn stream(seed: u64, name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A log-uniform magnitude in `[2, 2^max_bits)`: the bit length is
    /// `2 + ⌊u · (max_bits − 1)⌋` for `u` in `[0, 1)` and the value is
    /// uniform within it, so both parities occur. With `pow2`, the power
    /// of two of that length instead (the shift strategy class).
    pub fn magnitude(&mut self, max_bits: u32, u: f64, pow2: bool) -> u64 {
        let bits = 2 + (u * f64::from(max_bits - 1)) as u32;
        let low = 1u64 << (bits - 1);
        if pow2 {
            low
        } else {
            low | (self.next_u64() & (low - 1))
        }
    }

    /// A dividend: log-uniform magnitude over all 64 bits (zero
    /// included), negated half the time, so unsigned types see huge
    /// values and signed types see both signs.
    pub fn dividend(&mut self) -> u64 {
        let bits = 1 + self.below(64) as u32;
        let v = self.next_u64() >> (64 - bits);
        if self.below(2) == 0 {
            v
        } else {
            v.wrapping_neg()
        }
    }
}

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 hot divisors, 1024 dividends per request.
    HotBatch,
    /// The same 64 hot divisors, 1 dividend per request.
    HotScalar,
    /// Fresh divisors from a key space far above the cache size.
    DivisorChurn,
    /// Compile one (shape, width, d) per request.
    CompileSweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::HotBatch,
        Workload::HotScalar,
        Workload::DivisorChurn,
        Workload::CompileSweep,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotBatch => "hot_batch",
            Workload::HotScalar => "hot_scalar",
            Workload::DivisorChurn => "divisor_churn",
            Workload::CompileSweep => "compile_sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A divisor with its machine type; the type fixes the plan width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypedDivisor {
    /// Unsigned 32-bit.
    U32(u32),
    /// Unsigned 64-bit.
    U64(u64),
    /// Signed 64-bit.
    I64(i64),
}

impl TypedDivisor {
    /// Draws the `i`-th divisor of a stream. The mix is stratified so
    /// that every 64 consecutive draws hold the same classes whatever
    /// the seed: types cycle `u64, u32, u64, i64` (so 1/4 `u32`, 1/2
    /// `u64`, 1/4 `i64`, the signed ones of either sign); the bit length
    /// of each block of four follows a golden-ratio sequence over the
    /// type's range (log-uniform in aggregate); and the third block of
    /// every 16 draws powers of two. Only the values within a bit length
    /// and the signs come from the seed.
    pub fn nth(rng: &mut Rng, i: usize) -> Self {
        let block = i / 4;
        // The block's second u64 takes the opposite bit length stratum.
        let half = if i % 4 == 2 { 0.5 } else { 0.0 };
        let u = ((block as f64 + 0.5) * 0.618_033_988_749_895 + half).fract();
        let pow2 = block % 16 == 2;
        match i % 4 {
            1 => TypedDivisor::U32(rng.magnitude(32, u, pow2) as u32),
            3 => {
                let m = rng.magnitude(63, u, pow2) as i64;
                TypedDivisor::I64(if rng.below(2) == 0 { m } else { -m })
            }
            _ => TypedDivisor::U64(rng.magnitude(64, u, pow2)),
        }
    }

    /// Plan width in bits.
    pub fn width(self) -> u32 {
        match self {
            TypedDivisor::U32(_) => 32,
            TypedDivisor::U64(_) | TypedDivisor::I64(_) => 64,
        }
    }
}

/// One runtime request: a divisor and the offset of its dividend batch
/// in [`RuntimeInputs::dividends`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeRequest {
    /// The divisor the caller divides by.
    pub divisor: TypedDivisor,
    /// Offset of the request's first dividend.
    pub offset: usize,
}

/// Generator parameters of a runtime workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeParams {
    /// Dividends per request.
    pub batch_len: usize,
    /// Requests in the pool the closed loop cycles through.
    pub pool: usize,
    /// Dividends generated (requests share them round-robin).
    pub dividends: usize,
    /// `Some(n)`: divisors come from `n` hot keys drawn Zipf(s = 1),
    /// the `i`-th key having rank `i`; `None`: every request draws a
    /// fresh divisor.
    pub hot_keys: Option<usize>,
    /// Plan cache capacity.
    pub cache_capacity: usize,
    /// Divisors inserted into the cache before timing starts (fresh
    /// draws; the hot workloads insert their hot keys instead).
    pub prefill: usize,
}

impl RuntimeParams {
    /// The parameters of `workload`, `None` for the compile workload.
    pub fn of(workload: Workload) -> Option<Self> {
        match workload {
            Workload::HotBatch => Some(RuntimeParams {
                batch_len: 1024,
                pool: 4096,
                dividends: 1 << 18,
                hot_keys: Some(64),
                cache_capacity: 4096,
                prefill: 0,
            }),
            Workload::HotScalar => Some(RuntimeParams {
                batch_len: 1,
                pool: 1 << 16,
                dividends: 1 << 16,
                hot_keys: Some(64),
                cache_capacity: 4096,
                prefill: 0,
            }),
            Workload::DivisorChurn => Some(RuntimeParams {
                batch_len: 8,
                pool: 1 << 16,
                dividends: 1 << 19,
                hot_keys: None,
                cache_capacity: 4096,
                prefill: 4096,
            }),
            Workload::CompileSweep => None,
        }
    }
}

/// Inputs of a runtime workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeInputs {
    /// The parameters they were generated with.
    pub params: RuntimeParams,
    /// The request pool, cycled in order.
    pub requests: Vec<RuntimeRequest>,
    /// Dividend storage; a request reads `batch_len` values from its
    /// offset.
    pub dividends: Vec<u64>,
    /// Divisors planned into the cache before timing.
    pub prefill: Vec<TypedDivisor>,
    /// The workload's divisor sample: the hot keys, or the first 64
    /// distinct pool divisors. The traced run probes the runtime layers
    /// on it.
    pub sample: Vec<TypedDivisor>,
    /// Divisors drawn like the workload's own, whose generated code is
    /// compiled, checked and priced for `gen_code_*` (and, traced,
    /// probes the compile layers).
    pub code_sample: Vec<TypedDivisor>,
}

/// Size of the divisor sample of [`RuntimeInputs::sample`].
pub const SAMPLE: usize = 64;

/// Size of [`RuntimeInputs::code_sample`].
pub const CODE_SAMPLE: usize = 4096;

impl RuntimeInputs {
    /// Generates the inputs of a runtime workload from `seed`.
    pub fn generate(p: RuntimeParams, seed: u64) -> Self {
        let mut rng = Rng::stream(seed, "requests");
        let dividends: Vec<u64> = {
            let mut r = Rng::stream(seed, "dividends");
            (0..p.dividends).map(|_| r.dividend()).collect()
        };
        let hot: Vec<TypedDivisor> = match p.hot_keys {
            Some(n) => {
                let mut r = Rng::stream(seed, "hot-divisors");
                distinct(n, |i| TypedDivisor::nth(&mut r, i))
            }
            None => Vec::new(),
        };
        // Zipf(s = 1) over the hot keys: rank r has weight 1 / (r + 1).
        let cdf: Vec<f64> = hot
            .iter()
            .enumerate()
            .scan(0.0, |acc, (r, _)| {
                *acc += 1.0 / (r as f64 + 1.0);
                Some(*acc)
            })
            .collect();
        let batches = p.dividends / p.batch_len;
        let requests = (0..p.pool)
            .map(|i| {
                let divisor = if hot.is_empty() {
                    TypedDivisor::nth(&mut rng, i)
                } else {
                    let u = rng.unit() * cdf[cdf.len() - 1];
                    hot[cdf.partition_point(|&c| c <= u).min(hot.len() - 1)]
                };
                RuntimeRequest {
                    divisor,
                    offset: (i % batches) * p.batch_len,
                }
            })
            .collect::<Vec<_>>();
        let prefill = {
            let mut r = Rng::stream(seed, "prefill");
            (0..p.prefill)
                .map(|i| TypedDivisor::nth(&mut r, i))
                .collect()
        };
        let sample = if hot.is_empty() {
            let mut it = requests.iter().map(|r| r.divisor);
            distinct(SAMPLE, |_| {
                it.next().expect("pool holds 64 distinct divisors")
            })
        } else {
            hot.clone()
        };
        let code_sample = {
            let mut r = Rng::stream(seed, "code-sample");
            (0..CODE_SAMPLE)
                .map(|i| TypedDivisor::nth(&mut r, i))
                .collect()
        };
        RuntimeInputs {
            params: p,
            code_sample,
            requests,
            dividends,
            prefill: if hot.is_empty() { prefill } else { hot },
            sample,
        }
    }

    /// The dividends of `req`.
    pub fn batch(&self, req: &RuntimeRequest) -> &[u64] {
        &self.dividends[req.offset..req.offset + self.params.batch_len]
    }

    /// A window of `len` dividends starting at `req`'s batch (moved back
    /// to fit at the end of the storage), used to time the divide kernels
    /// on `len` values.
    pub fn window(&self, req: &RuntimeRequest, len: usize) -> &[u64] {
        let start = req.offset.min(self.dividends.len() - len);
        &self.dividends[start..start + len]
    }
}

/// `n` distinct values: slot `k` takes the first of `draw(k)`,
/// `draw(k + n)`, `draw(k + 2n)`, ... that no earlier slot holds. With
/// `n` a multiple of 64, the retries keep the slot's class in
/// [`TypedDivisor::nth`] and move to another bit length.
fn distinct<T: PartialEq>(n: usize, mut draw: impl FnMut(usize) -> T) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(n);
    for k in 0..n {
        let v = (0..)
            .map(|a| draw(k + n * a))
            .find(|v| !out.contains(v))
            .expect("the retries are unbounded");
        out.push(v);
    }
    out
}

/// The five compiled shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Unsigned quotient (Fig 4.2).
    Udiv,
    /// Signed truncating quotient (Fig 5.2).
    Sdiv,
    /// Signed floor quotient (Fig 6.1).
    Floor,
    /// Unsigned remainder.
    Urem,
    /// Divisibility test (§9).
    Divisibility,
}

impl Shape {
    const ALL: [Shape; 5] = [
        Shape::Udiv,
        Shape::Sdiv,
        Shape::Floor,
        Shape::Urem,
        Shape::Divisibility,
    ];

    /// Whether the divisor is read as a signed value.
    pub fn signed(self) -> bool {
        matches!(self, Shape::Sdiv | Shape::Floor)
    }
}

/// One compile request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompileRequest {
    /// What the generated code computes.
    pub shape: Shape,
    /// Word width, 32 or 64.
    pub width: u32,
    /// The divisor (negative only for signed shapes).
    pub d: i128,
    /// Plan with `Strategy::Tournament` instead of paper-only.
    pub tournament: bool,
}

/// Compile requests in the `compile_sweep` pool.
pub const COMPILE_POOL: usize = 4096;

/// One compile request in this many runs the tournament.
pub const TOURNAMENT_EVERY: u64 = 16;

impl CompileRequest {
    /// Draws the `i`-th request. The mix is stratified so that every 128
    /// consecutive requests hold the same classes whatever the seed (a
    /// 100 ms window of the closed loop covers part of the pool, so
    /// every stretch of it must hold the whole mix). In each block of
    /// 16, the first request runs the tournament, with shape `Udiv` or
    /// `Urem` (the shapes with a tournament) four blocks at a time, and
    /// the other 15 take the five shapes three times each. Width 64
    /// falls on 4 of the 16, a different 4 in each of four blocks
    /// (width 32 three times in four: an even split would put the median
    /// latency in the gap between five-target 32-bit and one-target
    /// 64-bit compiles). The bit length follows a golden-ratio sequence
    /// over the width (log-uniform in aggregate), and one request per
    /// block, at a position that moves from block to block, is a power
    /// of two. Only the values within a bit length and the signs come
    /// from the seed.
    pub fn nth(rng: &mut Rng, i: usize) -> Self {
        let every = TOURNAMENT_EVERY as usize;
        let (block, j) = (i / every, i % every);
        let width = if (block + j) % 4 == 0 { 64 } else { 32 };
        let tournament = j == 0;
        let shape = if tournament {
            [Shape::Udiv, Shape::Urem][block / 4 % 2]
        } else {
            Shape::ALL[(j - 1) % 5]
        };
        let u = ((i as f64 + 0.5) * 0.618_033_988_749_895).fract();
        let pow2 = (block + 5 * j) % 16 == 0;
        let d = if shape.signed() {
            let m = i128::from(rng.magnitude(width - 1, u, pow2));
            if rng.below(2) == 0 {
                m
            } else {
                -m
            }
        } else {
            i128::from(rng.magnitude(width, u, pow2))
        };
        CompileRequest {
            shape,
            width,
            d,
            tournament,
        }
    }

    /// The runtime divisor of the same value, used to probe the runtime
    /// layers from the compile workload.
    pub fn typed(self) -> TypedDivisor {
        match (self.shape.signed(), self.width) {
            (true, _) => TypedDivisor::I64(self.d as i64),
            (false, 32) => TypedDivisor::U32(self.d as u32),
            (false, _) => TypedDivisor::U64(self.d as u64),
        }
    }
}

/// Inputs of the compile workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileInputs {
    /// The request pool, cycled in order.
    pub requests: Vec<CompileRequest>,
    /// Seeded dividends each compiled program is checked on, besides
    /// the boundary values.
    pub check_dividends: Vec<u64>,
    /// Dividends the traced run's runtime-layer probes divide.
    pub probe_dividends: Vec<u64>,
}

impl CompileInputs {
    /// Generates the compile workload's inputs from `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::stream(seed, "compile");
        let requests = (0..COMPILE_POOL)
            .map(|i| CompileRequest::nth(&mut rng, i))
            .collect();
        let mut r = Rng::stream(seed, "dividends");
        CompileInputs {
            requests,
            check_dividends: (0..8).map(|_| r.dividend()).collect(),
            probe_dividends: (0..4096).map(|_| r.dividend()).collect(),
        }
    }

    /// The runtime divisors the traced run probes: those of the first
    /// 64 distinct requests.
    pub fn sample(&self) -> Vec<TypedDivisor> {
        let mut it = self.requests.iter().map(|r| r.typed());
        distinct(SAMPLE, |_| {
            it.next().expect("pool holds 64 distinct divisors")
        })
    }
}

/// Inputs of any workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inputs {
    /// A cache → guard → divide workload.
    Runtime(RuntimeInputs),
    /// The compile workload.
    Compile(CompileInputs),
}

impl Inputs {
    /// Generates `workload`'s inputs from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        match RuntimeParams::of(workload) {
            Some(p) => Inputs::Runtime(RuntimeInputs::generate(p, seed)),
            None => Inputs::Compile(CompileInputs::generate(seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicdiv::plan::{UdivPlan, UdivStrategy};

    /// The Fig 4.2 class of an unsigned divisor's plan.
    fn class(d: u64, width: u32) -> &'static str {
        match UdivPlan::new(u128::from(d), width)
            .expect("d >= 2")
            .strategy()
        {
            UdivStrategy::Shift { .. } => "shift",
            UdivStrategy::MulShift { sh_pre: 0, .. } => "mul_shift",
            UdivStrategy::MulShift { .. } => "even_pre_shift",
            UdivStrategy::MulAddShift { .. } => "mul_add_shift",
            _ => "other",
        }
    }

    #[test]
    fn the_hot_keys_cover_every_unsigned_strategy_class_and_the_type_mix() {
        for seed in 1..=5 {
            let p = RuntimeParams::of(Workload::HotBatch).expect("a runtime workload");
            let hot = RuntimeInputs::generate(p, seed).sample;
            let mut classes: Vec<&str> = hot
                .iter()
                .filter_map(|d| match *d {
                    TypedDivisor::U64(v) => Some(class(v, 64)),
                    TypedDivisor::U32(v) => Some(class(u64::from(v), 32)),
                    TypedDivisor::I64(_) => None,
                })
                .collect();
            classes.sort_unstable();
            classes.dedup();
            assert_eq!(
                classes,
                ["even_pre_shift", "mul_add_shift", "mul_shift", "shift"],
                "seed {seed}"
            );
            let count = |f: fn(&TypedDivisor) -> bool| hot.iter().filter(|d| f(d)).count();
            assert_eq!(count(|d| matches!(d, TypedDivisor::U32(_))), 16);
            assert_eq!(count(|d| matches!(d, TypedDivisor::U64(_))), 32);
            assert_eq!(count(|d| matches!(d, TypedDivisor::I64(_))), 16);
        }
    }

    #[test]
    fn every_128_compile_requests_hold_the_same_mix() {
        for seed in 1..=3 {
            let c = CompileInputs::generate(seed);
            let mix = |chunk: &[CompileRequest]| {
                let mut m: Vec<_> = chunk
                    .iter()
                    .map(|r| (r.shape as u8, r.width, r.tournament))
                    .collect();
                m.sort_unstable();
                m
            };
            let first = mix(&c.requests[..128]);
            assert!(c.requests.chunks(128).all(|ch| mix(ch) == first));
            assert_eq!(first.iter().filter(|m| m.1 == 64).count(), 32);
        }
    }

    #[test]
    fn one_compile_request_in_16_runs_the_tournament() {
        let c = CompileInputs::generate(3);
        let t: Vec<_> = c.requests.iter().filter(|r| r.tournament).collect();
        assert_eq!(t.len(), COMPILE_POOL / TOURNAMENT_EVERY as usize);
        assert!(t
            .iter()
            .all(|r| matches!(r.shape, Shape::Udiv | Shape::Urem)));
    }
}
