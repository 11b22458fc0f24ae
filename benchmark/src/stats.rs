//! Exact order statistics over raw samples, and a content digest.
//!
//! Every quantile the benchmark reports is read off the sorted raw
//! samples (nearest rank), never off histogram buckets.

/// Quantile summary of one sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// Highest of 50/90/99/99.9/99.99 with at least ten samples beyond
    /// it, and its value (`None` when fewer than 20 samples exist).
    pub top: Option<(f64, f64)>,
}

/// Nearest-rank quantile `q` in [0, 1] of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    // The epsilon keeps q·n that is an integer in exact arithmetic (0.9 ×
    // 100) from rounding up past it.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarise raw samples. Infinite samples (failed requests) sort last,
/// so they count as missing every latency limit.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Percentiles in parts per 10 000, so "samples beyond" is exact.
    let top = [5000, 9000, 9900, 9990, 9999]
        .into_iter()
        .rev()
        .find(|&p| n - (p * n).div_ceil(10_000) >= 10)
        .map(|p| {
            let q = p as f64 / 10_000.0;
            (q * 100.0, quantile_sorted(&sorted, q))
        });
    Summary {
        n,
        p50: quantile_sorted(&sorted, 0.5),
        p99: quantile_sorted(&sorted, 0.99),
        top,
    }
}

/// Median, over `chunks` consecutive slices of `samples` (in issue
/// order), of each slice's exact `q`-quantile. A stall of the machine
/// moves the slice it falls in, not the reported figure.
pub fn chunked_quantile(samples: &[f64], chunks: usize, q: f64) -> f64 {
    median(&chunk_quantiles(samples, chunks, q))
}

/// The exact `q`-quantile of each of `chunks` consecutive slices.
pub fn chunk_quantiles(samples: &[f64], chunks: usize, q: f64) -> Vec<f64> {
    let chunks = chunks.clamp(1, samples.len().max(1));
    let size = samples.len() / chunks;
    (0..chunks)
        .map(|c| {
            let end = if c + 1 == chunks {
                samples.len()
            } else {
                (c + 1) * size
            };
            let mut slice = samples[c * size..end].to_vec();
            slice.sort_by(f64::total_cmp);
            quantile_sorted(&slice, q)
        })
        .collect()
}

/// Median of raw samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

/// Time `f` `reps` times and return the median seconds per call.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// 64-bit FNV-1a digest of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a prediction vector's exact bit patterns.
pub fn digest_f64(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.p50, s.p99), (50.0, 99.0));
        assert_eq!(s.top, Some((90.0, 90.0)));
        let with_failure = [1.0, 2.0, f64::INFINITY];
        assert_eq!(summarize(&with_failure).p99, f64::INFINITY);
    }

    #[test]
    fn one_bad_chunk_does_not_move_the_median() {
        let mut v: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        v[150] = 1e9;
        assert_eq!(chunked_quantile(&v, 3, 0.99), 98.0);
    }
}
