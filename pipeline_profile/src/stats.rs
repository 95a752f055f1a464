//! Order statistics, the metric record every workload fills in, and
//! lookups into the JSON the benchmark reads back.

use serde::Content;

/// Nearest-rank percentile of an ascending sample (`p` in `(0, 100]`).
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// p50 and p90 of durations in ns, in milliseconds. p90 is the highest
/// percentile every workload samples at least ten times beyond.
pub fn p50_p90_ms(ns: &mut Reservoir<u64>) -> (f64, f64) {
    let sorted = ns.sorted();
    (
        percentile(sorted, 50.0) / 1e6,
        percentile(sorted, 90.0) / 1e6,
    )
}

const RESERVOIR: usize = 1 << 15;

/// The values kept for percentiles: a uniform sample of at most 32,768 of
/// everything pushed (Vitter's algorithm R) in a buffer written in full up
/// front. The memory a run holds then does not depend on how many
/// operations it completes, so a faster checker cannot read as a
/// `peak_rss_mb` regression.
#[derive(Debug)]
pub struct Reservoir<T> {
    slots: Vec<T>,
    len: usize,
    seen: u64,
    rng: u64,
}

impl<T: Copy + PartialOrd> Reservoir<T> {
    /// `fill` is written to every slot so the whole buffer is resident from
    /// the start.
    pub fn new(fill: T) -> Self {
        Reservoir {
            slots: vec![fill; RESERVOIR],
            len: 0,
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn push(&mut self, v: T) {
        self.seen += 1;
        if self.len < RESERVOIR {
            self.slots[self.len] = v;
            self.len += 1;
            return;
        }
        // xorshift64*: a fixed sequence, so equal inputs keep equal samples.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let slot = self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.seen;
        if let Ok(slot) = usize::try_from(slot) {
            if slot < RESERVOIR {
                self.slots[slot] = v;
            }
        }
    }

    /// Values pushed, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn values(&self) -> &[T] {
        &self.slots[..self.len]
    }

    /// Adds another reservoir's sample, as if its values had been pushed.
    pub fn absorb(&mut self, other: &Reservoir<T>) {
        for &v in other.values() {
            self.push(v);
        }
    }

    /// The kept values in ascending order.
    pub fn sorted(&mut self) -> &[T] {
        let kept = &mut self.slots[..self.len];
        kept.sort_unstable_by(|a, b| a.partial_cmp(b).expect("comparable samples"));
        kept
    }
}

/// Median of a sample of floats.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method), so
/// `--repeat` prints the spread the acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Ratio that reads 0 rather than NaN when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The value under `key` in a JSON object.
pub fn field<'a>(c: &'a Content, key: &str) -> Option<&'a Content> {
    match c {
        Content::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number.
pub fn number(c: &Content) -> Option<f64> {
    match *c {
        Content::U64(v) => Some(v as f64),
        Content::I64(v) => Some(v as f64),
        Content::F64(v) => Some(v),
        _ => None,
    }
}

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run reports: metrics plus the operation and oracle
/// tallies behind the result line.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted: verdicts computed (batch) or HTTP requests
    /// sent (stream).
    pub attempted: u64,
    /// Unknown verdicts, non-2xx responses and ingest errors.
    pub failed_ops: u64,
    /// Every verdict the oracle rejects, known failures included.
    pub wrong: u64,
    /// The subset of `wrong` matching a recorded known failure.
    pub known: u64,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// Verdicts the oracle rejects that no recorded failure explains.
    pub fn unexplained(&self) -> u64 {
        self.wrong - self.known
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(0u64);
        for v in 0..4 * RESERVOIR as u64 {
            r.push(v);
        }
        assert_eq!(r.seen(), 4 * RESERVOIR as u64);
        assert_eq!(r.values().len(), RESERVOIR);
        // A uniform sample of 0..4N has its median near 2N.
        let median = percentile(r.sorted(), 50.0) / RESERVOIR as f64;
        assert!((median - 2.0).abs() < 0.05, "median at {median} N");
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7], 99.0), 7.0);
    }
}
