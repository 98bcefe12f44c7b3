//! Server-side counters and the epoch-latency histogram.
//!
//! All counters are atomics so connection threads, the acceptor and the
//! shard threads update them without a lock; [`ServeMetrics::snapshot`] takes a
//! point-in-time copy for serialization. The histogram uses power-of-two
//! microsecond buckets — coarse, but monotone and allocation-free — and
//! reports conservative (upper-bound) percentile estimates.

use std::sync::atomic::{AtomicU64, Ordering};

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

/// Shared server counters, updated lock-free from every thread.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Requests admitted (past the class quotas, or pushed to a shard
    /// thread as part of a fleet-wide op).
    pub accepted: AtomicU64,
    /// Requests bounced by a full class quota.
    pub rejected_overload: AtomicU64,
    /// Requests whose deadline passed while they waited to be served.
    pub rejected_deadline: AtomicU64,
    /// Requests bounced because the server was draining.
    pub rejected_shutdown: AtomicU64,
    /// Lines that failed to parse or validate.
    pub protocol_errors: AtomicU64,
    /// Epochs executed.
    pub epochs: AtomicU64,
    /// Requests in flight on the shard (admitted and not yet answered,
    /// plus whatever is queued for its thread) at the last admission
    /// (gauge); each shard keeps its own, so scrapes see per-shard
    /// backlog, not just the high-water mark.
    pub queue_depth: AtomicU64,
    /// High-water mark of that depth, observed at admission.
    pub queue_depth_max: AtomicU64,
    /// Events appended durably to the write-ahead log.
    pub wal_appends: AtomicU64,
    /// Failed WAL appends/checkpoints (each one rejected an event or
    /// postponed a checkpoint — never silently dropped).
    pub wal_errors: AtomicU64,
    /// CRC failures found by WAL scrubs (counter; each one is a damaged
    /// record or checkpoint a scrub pass reported).
    pub wal_scrub_errors: AtomicU64,
    /// Snapshot checkpoints taken.
    pub checkpoints: AtomicU64,
    /// WAL segments currently retained on disk (gauge).
    pub wal_segments: AtomicU64,
    /// Total bytes across retained WAL segments (gauge).
    pub wal_bytes: AtomicU64,
    /// Size of the newest checkpoint file in bytes (gauge).
    pub checkpoint_bytes: AtomicU64,
    /// Records the slowest connected standby still trails the primary
    /// by (gauge; 0 with no standby or when fully caught up).
    pub repl_lag_records: AtomicU64,
    /// Standby replicas currently connected to this primary (gauge).
    pub standby_connected: AtomicU64,
    /// Replication records streamed to standbys (counter).
    pub repl_records_sent: AtomicU64,
    /// Standby-to-primary promotions this process performed (counter).
    pub promotions: AtomicU64,
    /// Standby state-fingerprint mismatches detected (counter); each one
    /// fenced a divergent replica instead of ever promoting it.
    pub divergences: AtomicU64,
    /// Fenced gauge: 1 once this node saw a higher term (or diverged)
    /// and refuses mutations, 0 otherwise.
    pub fenced: AtomicU64,
    /// Reader threads that died to a panic (connections lost alone).
    pub reader_panics: AtomicU64,
    /// Panics caught under a shard lock, whichever thread held it (the
    /// name dates from when only the ticker thread did).
    pub ticker_panics: AtomicU64,
    /// Degraded gauge: 1 after such a panic (the shard is Down until the
    /// supervisor restarts it), 0 in normal operation.
    pub degraded: AtomicU64,
    /// Shards currently Down (gauge, router-wide; lives on shard 0's
    /// metrics like the other transport-level counters).
    pub shards_down: AtomicU64,
    /// Shards restarted in place by the supervisor (counter).
    pub shard_restarts: AtomicU64,
    /// Fleet epochs that completed without every shard reporting — the
    /// merged report carried `partial: true` (counter).
    pub partial_epochs: AtomicU64,
    /// Coordination rounds skipped because fewer than quorum shards
    /// reported: allotments were frozen instead (counter).
    pub quorum_freezes: AtomicU64,
    /// Wall-clock latency of each epoch's pump.
    pub epoch_latency: LatencyHistogram,
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

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> ServeMetricsSnapshot {
        ServeMetricsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            epochs: self.epochs.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_errors: self.wal_errors.load(Ordering::Relaxed),
            wal_scrub_errors: self.wal_scrub_errors.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            wal_segments: self.wal_segments.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
            repl_lag_records: self.repl_lag_records.load(Ordering::Relaxed),
            standby_connected: self.standby_connected.load(Ordering::Relaxed),
            repl_records_sent: self.repl_records_sent.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            divergences: self.divergences.load(Ordering::Relaxed),
            fenced: self.fenced.load(Ordering::Relaxed),
            reader_panics: self.reader_panics.load(Ordering::Relaxed),
            ticker_panics: self.ticker_panics.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            shards_down: self.shards_down.load(Ordering::Relaxed),
            shard_restarts: self.shard_restarts.load(Ordering::Relaxed),
            partial_epochs: self.partial_epochs.load(Ordering::Relaxed),
            quorum_freezes: self.quorum_freezes.load(Ordering::Relaxed),
            epoch_latency: self.epoch_latency.snapshot(),
        }
    }
}

/// A plain copy of [`ServeMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeMetricsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Requests admitted.
    pub accepted: u64,
    /// Requests bounced by quota.
    pub rejected_overload: u64,
    /// Requests expired while waiting.
    pub rejected_deadline: u64,
    /// Requests bounced during drain.
    pub rejected_shutdown: u64,
    /// Unparseable or invalid lines.
    pub protocol_errors: u64,
    /// Epochs executed.
    pub epochs: u64,
    /// Requests in flight at the last admission (gauge).
    pub queue_depth: u64,
    /// Queue depth high-water mark.
    pub queue_depth_max: u64,
    /// Durable WAL appends.
    pub wal_appends: u64,
    /// Failed WAL appends/checkpoints.
    pub wal_errors: u64,
    /// CRC failures found by WAL scrubs.
    pub wal_scrub_errors: u64,
    /// Snapshot checkpoints taken.
    pub checkpoints: u64,
    /// WAL segments retained on disk.
    pub wal_segments: u64,
    /// Bytes across retained WAL segments.
    pub wal_bytes: u64,
    /// Newest checkpoint file size in bytes.
    pub checkpoint_bytes: u64,
    /// Records the slowest connected standby trails by.
    pub repl_lag_records: u64,
    /// Connected standby replicas.
    pub standby_connected: u64,
    /// Replication records streamed to standbys.
    pub repl_records_sent: u64,
    /// Standby-to-primary promotions performed.
    pub promotions: u64,
    /// Divergent standbys detected (and fenced).
    pub divergences: u64,
    /// Fenced gauge (1 = deposed/diverged, mutations refused).
    pub fenced: u64,
    /// Reader threads lost to panics.
    pub reader_panics: u64,
    /// Panics caught under a shard lock.
    pub ticker_panics: u64,
    /// Degraded-mode gauge (1 = mutations refused).
    pub degraded: u64,
    /// Shards currently Down (router-wide gauge).
    pub shards_down: u64,
    /// Shards restarted in place by the supervisor.
    pub shard_restarts: u64,
    /// Fleet epochs whose merged report was `partial: true`.
    pub partial_epochs: u64,
    /// Coordination rounds frozen for lack of quorum.
    pub quorum_freezes: u64,
    /// Epoch pump latency distribution.
    pub epoch_latency: HistogramSnapshot,
}

impl ServeMetricsSnapshot {
    /// Stable JSON form with fixed field order.
    pub(crate) fn to_json_value(&self) -> Value {
        Value::obj(vec![
            ("connections", Value::from_u64(self.connections)),
            ("accepted", Value::from_u64(self.accepted)),
            ("rejected_overload", Value::from_u64(self.rejected_overload)),
            ("rejected_deadline", Value::from_u64(self.rejected_deadline)),
            ("rejected_shutdown", Value::from_u64(self.rejected_shutdown)),
            ("protocol_errors", Value::from_u64(self.protocol_errors)),
            ("epochs", Value::from_u64(self.epochs)),
            ("queue_depth", Value::from_u64(self.queue_depth)),
            ("queue_depth_max", Value::from_u64(self.queue_depth_max)),
            ("wal_appends", Value::from_u64(self.wal_appends)),
            ("wal_errors", Value::from_u64(self.wal_errors)),
            ("wal_scrub_errors", Value::from_u64(self.wal_scrub_errors)),
            ("checkpoints", Value::from_u64(self.checkpoints)),
            ("wal_segments", Value::from_u64(self.wal_segments)),
            ("wal_bytes", Value::from_u64(self.wal_bytes)),
            ("checkpoint_bytes", Value::from_u64(self.checkpoint_bytes)),
            ("repl_lag_records", Value::from_u64(self.repl_lag_records)),
            ("standby_connected", Value::from_u64(self.standby_connected)),
            ("repl_records_sent", Value::from_u64(self.repl_records_sent)),
            ("promotions", Value::from_u64(self.promotions)),
            ("divergences", Value::from_u64(self.divergences)),
            ("fenced", Value::from_u64(self.fenced)),
            ("reader_panics", Value::from_u64(self.reader_panics)),
            ("ticker_panics", Value::from_u64(self.ticker_panics)),
            ("degraded", Value::from_u64(self.degraded)),
            ("shards_down", Value::from_u64(self.shards_down)),
            ("shard_restarts", Value::from_u64(self.shard_restarts)),
            ("partial_epochs", Value::from_u64(self.partial_epochs)),
            ("quorum_freezes", Value::from_u64(self.quorum_freezes)),
            ("epoch_latency", self.epoch_latency.to_json_value()),
        ])
    }

    /// Stable `name value` text form for scrape endpoints.
    pub(crate) fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in [
            ("refserve_connections", self.connections),
            ("refserve_accepted", self.accepted),
            ("refserve_rejected_overload", self.rejected_overload),
            ("refserve_rejected_deadline", self.rejected_deadline),
            ("refserve_rejected_shutdown", self.rejected_shutdown),
            ("refserve_protocol_errors", self.protocol_errors),
            ("refserve_epochs", self.epochs),
            ("refserve_queue_depth", self.queue_depth),
            ("refserve_queue_depth_max", self.queue_depth_max),
            ("refserve_wal_appends", self.wal_appends),
            ("refserve_wal_errors", self.wal_errors),
            ("refserve_wal_scrub_errors", self.wal_scrub_errors),
            ("refserve_checkpoints", self.checkpoints),
            ("refserve_wal_segments", self.wal_segments),
            ("refserve_wal_bytes", self.wal_bytes),
            ("refserve_checkpoint_bytes", self.checkpoint_bytes),
            ("refserve_repl_lag_records", self.repl_lag_records),
            ("refserve_standby_connected", self.standby_connected),
            ("refserve_repl_records_sent", self.repl_records_sent),
            ("refserve_promotions", self.promotions),
            ("refserve_divergences", self.divergences),
            ("refserve_fenced", self.fenced),
            ("refserve_reader_panics", self.reader_panics),
            ("refserve_ticker_panics", self.ticker_panics),
            ("refserve_degraded", self.degraded),
            ("refserve_shards_down", self.shards_down),
            ("refserve_shard_restarts", self.shard_restarts),
            ("refserve_partial_epochs", self.partial_epochs),
            ("refserve_quorum_freezes", self.quorum_freezes),
            ("refserve_epoch_latency_count", self.epoch_latency.count),
            ("refserve_epoch_latency_sum_us", self.epoch_latency.sum_us),
            (
                "refserve_epoch_latency_p50_us",
                self.epoch_latency.quantile_us(0.50),
            ),
            (
                "refserve_epoch_latency_p99_us",
                self.epoch_latency.quantile_us(0.99),
            ),
        ] {
            let _ = writeln!(out, "{name} {value}");
        }
        out
    }
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
}
