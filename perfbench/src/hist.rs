//! A fixed-size log-bucketed latency histogram.
//!
//! Memory stays constant however long a run is, so the harness does not
//! inflate `peak_rss_mib`. (The power-of-two buckets of
//! `magicdiv_trace::Histogram` are too coarse to resolve a 10% latency
//! change.) Values below 128 ns are exact; above, each
//! power of two splits into 128 buckets (under 0.8% apart), and a
//! percentile interpolates linearly inside its bucket.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the exact range: up to 2^(7 + 40) ns, about 39 hours.
const OCTAVES: usize = 40;
const BUCKETS: usize = SUB as usize * (OCTAVES + 1);

/// Latency histogram over nanosecond samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

fn index(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let octave = u64::from(63 - ns.leading_zeros() - SUB_BITS);
    let sub = (ns >> octave) & (SUB - 1);
    ((octave + 1) * SUB + sub).min(BUCKETS as u64 - 1) as usize
}

/// `[low, high)` nanoseconds of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, i as f64 + 1.0);
    }
    let octave = i / SUB - 1;
    let low = (SUB + i % SUB) << octave;
    (low as f64, (low + (1 << octave)) as f64)
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 <= q <= 1`) in nanoseconds, `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 > rank {
                let (low, high) = bounds(i);
                let within = (rank - below as f64 + 0.5) / c as f64;
                return Some(low + (high - low) * within);
            }
            below += c;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_values_within_a_percent() {
        for ns in [0u64, 1, 127, 128, 129, 1000, 65_432, 10_000_000, 1 << 45] {
            let (low, high) = bounds(index(ns));
            assert!(low <= ns as f64 && (ns as f64) < high, "{ns}");
            assert!(ns < 128 || (high - low) / low < 0.008, "{ns}");
        }
    }

    #[test]
    fn quantiles_track_the_samples() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        for ns in 1..=10_000u64 {
            h.record(ns);
        }
        let p50 = h.quantile(0.5).expect("non-empty");
        let p99 = h.quantile(0.99).expect("non-empty");
        assert!((p50 - 5000.0).abs() < 50.0, "{p50}");
        assert!((p99 - 9900.0).abs() < 80.0, "{p99}");
        assert_eq!(h.count(), 10_000);
    }
}
