//! Server-side counters and the epoch-latency histogram.
//!
//! All counters are atomics so connection threads, the acceptor and the
//! shard threads update them without a lock; [`ServeMetrics::snapshot`] takes a
//! point-in-time copy for serialization. The histogram uses power-of-two
//! microsecond buckets — coarse, but monotone and allocation-free — and
//! reports conservative (upper-bound) percentile estimates.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use ref_market::MarketMetrics;

use crate::json::Value;

/// Number of log2 microsecond buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` µs, except bucket 0 (`< 2` µs) and the last bucket
/// (everything from ~67 s up).
pub(crate) const HISTOGRAM_BUCKETS: usize = 27;

/// A fixed-bucket log2 latency histogram over microseconds.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    fn bucket_index(us: u64) -> usize {
        ((64 - us.max(1).leading_zeros() as usize) - 1).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one sample, in microseconds.
    pub(crate) fn record_us(&self, us: u64) {
        self.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Point-in-time copy of the bucket counts.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// A plain copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples in microseconds.
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// Upper bound of bucket `i` in microseconds.
    fn bucket_upper_us(i: usize) -> u64 {
        1u64 << (i + 1)
    }

    /// Conservative `q`-quantile estimate in microseconds (the upper edge
    /// of the bucket containing the quantile), or 0 with no samples.
    pub(crate) fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper_us(i);
            }
        }
        Self::bucket_upper_us(HISTOGRAM_BUCKETS - 1)
    }

    /// Stable JSON form: count, sum, p50/p99 estimates, non-empty buckets
    /// as `[index, count]` pairs.
    pub(crate) fn to_json_value(&self) -> Value {
        let nonzero: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| Value::Arr(vec![Value::from_u64(i as u64), Value::from_u64(*n)]))
            .collect();
        Value::obj(vec![
            ("count", Value::from_u64(self.count)),
            ("sum_us", Value::from_u64(self.sum_us)),
            ("p50_us", Value::from_u64(self.quantile_us(0.50))),
            ("p99_us", Value::from_u64(self.quantile_us(0.99))),
            ("buckets", Value::Arr(nonzero)),
        ])
    }
}

/// Declares the server's counters once: the lock-free [`ServeMetrics`],
/// its plain [`ServeMetricsSnapshot`], and the order both stable
/// exports list them in.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Shared server counters, updated lock-free from every thread.
        #[derive(Debug, Default)]
        pub struct ServeMetrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
            /// Wall-clock latency of each epoch's pump.
            pub epoch_latency: LatencyHistogram,
        }

        /// A plain copy of [`ServeMetrics`].
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct ServeMetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
            /// Epoch pump latency distribution.
            pub epoch_latency: HistogramSnapshot,
        }

        impl ServeMetrics {
            /// Point-in-time copy of every counter.
            pub fn snapshot(&self) -> ServeMetricsSnapshot {
                ServeMetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    epoch_latency: self.epoch_latency.snapshot(),
                }
            }
        }

        impl ServeMetricsSnapshot {
            /// Every counter by name, in declaration order.
            fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }
        }
    };
}

counters! {
    /// Connections accepted over the server's lifetime.
    connections,
    /// Requests admitted (served on their connection's thread, or pushed
    /// to a shard thread as part of a fleet-wide op).
    accepted,
    /// Connections bounced by the connection cap, each answered
    /// `overloaded` with a `retry_after_ms` hint.
    rejected_overload,
    /// Requests whose deadline passed while they waited to be served.
    rejected_deadline,
    /// Requests bounced because the server was draining.
    rejected_shutdown,
    /// Lines that failed to parse or validate.
    protocol_errors,
    /// Epochs executed.
    epochs,
    /// Requests in flight on the shard (admitted and not yet served,
    /// plus whatever is queued for its thread) at the last admission
    /// (gauge); each shard keeps its own, so scrapes see per-shard
    /// backlog, not just the high-water mark.
    queue_depth,
    /// High-water mark of that depth, observed at admission.
    queue_depth_max,
    /// Events appended durably to the write-ahead log.
    wal_appends,
    /// Failed WAL appends/checkpoints (each one rejected an event or
    /// postponed a checkpoint — never silently dropped).
    wal_errors,
    /// CRC failures found by WAL scrubs (counter; each one is a damaged
    /// record or checkpoint a scrub pass reported).
    wal_scrub_errors,
    /// Snapshot checkpoints taken.
    checkpoints,
    /// WAL segments currently retained on disk (gauge).
    wal_segments,
    /// Total bytes across retained WAL segments (gauge).
    wal_bytes,
    /// Size of the newest checkpoint file in bytes (gauge).
    checkpoint_bytes,
    /// Records the slowest connected standby still trails the primary
    /// by (gauge; 0 with no standby or when fully caught up).
    repl_lag_records,
    /// Standby replicas currently connected to this primary (gauge).
    standby_connected,
    /// Replication records streamed to standbys (counter).
    repl_records_sent,
    /// Standby-to-primary promotions this process performed (counter).
    promotions,
    /// Standby state-fingerprint mismatches detected (counter); each one
    /// fenced a divergent replica instead of ever promoting it.
    divergences,
    /// Fenced gauge: 1 once this node saw a higher term (or diverged)
    /// and refuses mutations, 0 otherwise.
    fenced,
    /// Reader threads that died to a panic (connections lost alone).
    reader_panics,
    /// Panics caught under a shard lock, whichever thread held it (the
    /// name dates from when only the ticker thread did).
    ticker_panics,
    /// Degraded gauge: 1 after such a panic (the shard is Down until the
    /// supervisor restarts it), 0 in normal operation.
    degraded,
    /// Shards currently Down (gauge, router-wide; lives on shard 0's
    /// metrics like the other transport-level counters).
    shards_down,
    /// Shards restarted in place by the supervisor (counter).
    shard_restarts,
    /// Fleet epochs that completed without every shard reporting — the
    /// merged report carried `partial: true` (counter).
    partial_epochs,
    /// Coordination rounds skipped because fewer than quorum shards
    /// reported: allotments were frozen instead (counter).
    quorum_freezes,
}

impl ServeMetrics {
    /// Creates zeroed counters.
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps a counter by `n`.
    pub(crate) fn bump_by(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises `queue_depth_max` to at least `depth`.
    pub(crate) fn observe_depth(&self, depth: u64) {
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }
}

impl ServeMetricsSnapshot {
    /// Stable JSON form with fixed field order.
    pub(crate) fn to_json_value(&self) -> Value {
        let counters = self.counters().into_iter();
        let mut fields: Vec<(&str, Value)> = counters
            .map(|(name, value)| (name, Value::from_u64(value)))
            .collect();
        fields.push(("epoch_latency", self.epoch_latency.to_json_value()));
        Value::obj(fields)
    }

    /// Stable `name value` text form for scrape endpoints.
    pub(crate) fn to_text(&self) -> String {
        let mut out = String::new();
        let latency = &self.epoch_latency;
        let mut lines = self.counters();
        lines.extend([
            ("epoch_latency_count", latency.count),
            ("epoch_latency_sum_us", latency.sum_us),
            ("epoch_latency_p50_us", latency.quantile_us(0.50)),
            ("epoch_latency_p99_us", latency.quantile_us(0.99)),
        ]);
        for (name, value) in lines {
            let _ = writeln!(out, "refserve_{name} {value}");
        }
        out
    }
}

/// The market's counters, each once in [`MarketMetrics::counters`]
/// order: as the `metrics` reply's `market` object, with the derived
/// `cache_hit_rate` last (its encoding is also the shutdown report's
/// `market_metrics_json`), and as `refmarket_*` scrape lines, which carry
/// no rate.
pub(crate) fn market_metrics(m: &MarketMetrics) -> (Value, String) {
    let mut fields = Vec::new();
    let mut text = String::new();
    for (name, value) in m.counters() {
        fields.push((name, Value::from_u64(value)));
        let _ = writeln!(text, "refmarket_{name} {value}");
    }
    fields.push(("cache_hit_rate", Value::num(m.cache_hit_rate())));
    (Value::obj(fields), text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_the_microsecond_range() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(2), 1);
        assert_eq!(LatencyHistogram::bucket_index(3), 1);
        assert_eq!(LatencyHistogram::bucket_index(4), 2);
        assert_eq!(LatencyHistogram::bucket_index(1024), 10);
        assert_eq!(
            LatencyHistogram::bucket_index(u64::MAX),
            HISTOGRAM_BUCKETS - 1
        );
    }

    #[test]
    fn quantiles_are_conservative_upper_bounds() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record_us(100); // bucket 6: [64, 128)
        }
        h.record_us(1_000_000); // bucket 19
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.quantile_us(0.50), 128);
        assert_eq!(snap.quantile_us(0.99), 128);
        assert_eq!(snap.quantile_us(1.0), 1 << 20);
        assert!(snap.sum_us > 100 * snap.count);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let snap = LatencyHistogram::default().snapshot();
        assert_eq!(snap.quantile_us(0.5), 0);
        assert_eq!(snap.sum_us, 0);
    }

    #[test]
    fn snapshot_json_and_text_have_fixed_shapes() {
        let m = ServeMetrics::new();
        ServeMetrics::bump(&m.accepted);
        ServeMetrics::bump(&m.accepted);
        ServeMetrics::bump(&m.rejected_overload);
        m.observe_depth(17);
        m.epoch_latency.record_us(50);
        let snap = m.snapshot();
        let json = snap.to_json_value().encode();
        assert!(
            json.starts_with("{\"connections\":0,\"accepted\":2,"),
            "{json}"
        );
        assert!(json.contains("\"queue_depth_max\":17"), "{json}");
        assert!(json.contains("\"epoch_latency\":{\"count\":1,"), "{json}");
        let text = snap.to_text();
        assert!(text.contains("refserve_accepted 2\n"), "{text}");
        assert!(text.contains("refserve_wal_appends 0\n"), "{text}");
        assert!(text.contains("refserve_degraded 0\n"), "{text}");
        assert!(text.contains("refserve_wal_segments 0\n"), "{text}");
        assert!(text.contains("refserve_standby_connected 0\n"), "{text}");
        assert!(text.contains("refserve_divergences 0\n"), "{text}");
        assert!(text.contains("refserve_queue_depth 0\n"), "{text}");
        assert!(text.contains("refserve_shards_down 0\n"), "{text}");
        assert!(text.contains("refserve_shard_restarts 0\n"), "{text}");
        assert!(text.contains("refserve_partial_epochs 0\n"), "{text}");
        assert!(text.contains("refserve_quorum_freezes 0\n"), "{text}");
        assert!(
            json.contains("\"quorum_freezes\":0,\"epoch_latency\":"),
            "{json}"
        );
        assert!(text.contains("refserve_wal_scrub_errors 0\n"), "{text}");
        assert_eq!(text.lines().count(), 33);
    }

    #[test]
    fn metrics_json_golden_is_bit_stable() {
        let m = MarketMetrics {
            epochs: 10,
            events: 42,
            joins: 3,
            leaves: 1,
            demand_changes: 2,
            external_observations: 7,
            reallocations: 4,
            cache_hits: 6,
            refits: 9,
            rejected_events: 5,
            degenerate_refits: 2,
            quarantines: 1,
            reallotments: 8,
            warm_start_hits: 11,
            warm_start_misses: 4,
            warm_start_fallbacks: 2,
            credits_accrued: 13,
            credits_spent: 12,
            temporal_si_violations: 3,
        };
        assert_eq!(
            market_metrics(&m).0.encode(),
            "{\"epochs\":10,\"events\":42,\"joins\":3,\"leaves\":1,\
             \"demand_changes\":2,\"external_observations\":7,\
             \"reallocations\":4,\"cache_hits\":6,\"refits\":9,\
             \"rejected_events\":5,\"degenerate_refits\":2,\
             \"quarantines\":1,\"reallotments\":8,\"warm_start_hits\":11,\
             \"warm_start_misses\":4,\"warm_start_fallbacks\":2,\
             \"credits_accrued\":13,\"credits_spent\":12,\
             \"temporal_si_violations\":3,\"cache_hit_rate\":0.6}"
        );
        let empty = market_metrics(&MarketMetrics::default()).0.encode();
        assert_eq!(empty.matches(':').count(), 20);
    }

    #[test]
    fn metrics_text_golden_is_line_per_counter() {
        let m = MarketMetrics {
            epochs: 2,
            events: 3,
            ..MarketMetrics::default()
        };
        let (_, text) = market_metrics(&m);
        assert!(text.starts_with("refmarket_epochs 2\nrefmarket_events 3\n"));
        assert_eq!(text.lines().count(), 19);
        assert!(text.ends_with("refmarket_temporal_si_violations 0\n"));
    }
}
