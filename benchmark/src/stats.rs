//! Percentiles, medians of segments, and the quartile spread `compare` uses.

/// Equal consecutive segments, by op index, that a phase of a served run and
/// the ops of a traced run are cut into. A timed metric is computed on each
/// segment and reported as the median of the five, so a slow stretch (a
/// checkpoint, a noisy neighbour, a stolen CPU) moves it little, and the
/// per-segment values show how the metric drifts as the server's state grows
/// within a run.
pub const SEGMENTS: usize = 5;

/// The segment, out of `segments`, of op `index` out of `total` ops.
pub fn segment_of(index: usize, total: usize, segments: usize) -> usize {
    debug_assert!(index < total);
    index * segments / total
}

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the two middle values for an even count. `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// A percentile taken per segment and summarised as the median of segments.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedPercentile {
    /// Median of the non-empty segments' percentiles.
    pub value: f64,
    /// Samples over all segments.
    pub samples: usize,
    /// Each segment's percentile (`None` for a segment without samples).
    pub segments: Vec<Option<f64>>,
}

/// `q`-th percentile of `(index, total, value)` samples — op `index` of a
/// stream of `total` ops took `value` — per segment of the stream, then the
/// median of those. `None` when there are no samples at all.
pub fn segmented_percentile(
    samples: &[(usize, usize, u64)],
    q: f64,
) -> Option<SegmentedPercentile> {
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); SEGMENTS];
    for &(index, total, value) in samples {
        buckets[segment_of(index, total, SEGMENTS)].push(value);
    }
    let segments: Vec<Option<f64>> = buckets
        .iter_mut()
        .map(|bucket| {
            bucket.sort_unstable();
            (!bucket.is_empty()).then(|| percentile(bucket, q) as f64)
        })
        .collect();
    let present: Vec<f64> = segments.iter().flatten().copied().collect();
    Some(SegmentedPercentile {
        value: median(&present)?,
        samples: samples.len(),
        segments,
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1).abs() / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.90), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 0.5), 3);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn segments_split_by_op_index() {
        let total = 10;
        let segs: Vec<usize> = (0..total).map(|i| segment_of(i, total, 5)).collect();
        assert_eq!(segs, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
        // Uneven totals still cover every segment in order.
        let segs: Vec<usize> = (0..7).map(|i| segment_of(i, 7, 5)).collect();
        assert_eq!(segs, vec![0, 0, 1, 2, 2, 3, 4]);
        assert_eq!(segment_of(999, 1000, 20), 19);
    }

    #[test]
    fn median_of_segments_ignores_one_bad_segment() {
        // Four quiet segments at 10, one at 1000: the mean would be 208.
        let samples: Vec<(usize, usize, u64)> = (0..500)
            .map(|i| (i, 500, if i / 100 == 3 { 1000 } else { 10 }))
            .collect();
        let got = segmented_percentile(&samples, 0.5).unwrap();
        assert_eq!(got.value, 10.0);
        assert_eq!(got.samples, 500);
        assert_eq!(got.segments[3], Some(1000.0));
        assert_eq!(got.segments.len(), 5);
    }

    #[test]
    fn empty_segments_are_skipped() {
        // All samples in the first and last fifth of the stream: the middle
        // segments have none and are skipped, not counted as 0.
        let samples: Vec<(usize, usize, u64)> = (0..300)
            .map(|i| {
                if i < 150 {
                    (i, 1_500, 5)
                } else {
                    (1_200 + i, 1_500, 9)
                }
            })
            .collect();
        let got = segmented_percentile(&samples, 0.5).unwrap();
        assert_eq!(got.segments, [Some(5.0), None, None, None, Some(9.0)]);
        assert_eq!(got.value, 7.0);
        assert!(segmented_percentile(&[], 0.5).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
