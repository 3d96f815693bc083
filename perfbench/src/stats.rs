//! Order statistics, percentiles and the output digest.

/// Quartiles `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them; a single value is its own quartiles.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Percentiles the benchmark may report, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`LADDER`] that leaves at least ten of `n`
/// samples beyond it (`None` when even the median does not).
pub fn reportable_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n >= 10 && n - nearest_rank(n, p) >= 10)
}

/// 1-based nearest rank of percentile `p` (in tenths of a percent, exact
/// in integers) among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` of `values`.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    data[nearest_rank(data.len(), p) - 1]
}

/// FNV-1a 64 over a sequence of `f64` bit patterns (little-endian), as a
/// 16-digit hex string: the results digest the output checks compare.
pub fn digest(values: impl IntoIterator<Item = f64>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// SplitMix64: the stream every per-run seed is drawn from, so one
/// workload seed fixes every generated input.
#[derive(Debug, Clone)]
pub struct SeedStream(u64);

impl SeedStream {
    /// A stream rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        SeedStream(seed)
    }

    /// The next seed of the stream. Seeds keep to 63 bits, so spec
    /// documents (whose integers are `i64`) can carry them.
    pub fn next_seed(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) >> 1
    }
}
