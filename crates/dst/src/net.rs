//! `SimNet`: a deterministic message bag standing in for the fleet's
//! TCP links.
//!
//! Every frame sent between simulated nodes goes into a priority queue
//! keyed by `(delivery time, send order)`. Per-send randomness (delay
//! jitter, loss, duplication) comes from the caller's seeded stream, so
//! the whole network is a pure function of the seed. Links are
//! *directional*: a partition can cut primary→standby while acks still
//! flow, or sever both ways. Delivery within one link is FIFO — delays
//! jitter, but a later send never overtakes an earlier one on the same
//! link, matching TCP's in-order contract. Reordering across *different*
//! links (and duplicated frames, standing in for retransmits) still
//! happens freely.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::sim::SimRng;

/// One frame in flight between two nodes.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Sending node id.
    pub from: usize,
    /// Receiving node id.
    pub to: usize,
    /// The framed bytes (exactly what a socket would carry).
    pub frame: Vec<u8>,
}

/// The simulated network (see the module docs).
#[derive(Debug)]
pub struct SimNet {
    queue: BTreeMap<(u64, u64), Packet>,
    seq: u64,
    /// Per-link FIFO floor: nanosecond delivery time of the last frame
    /// scheduled on the link.
    fifo_floor: BTreeMap<(usize, usize), u64>,
    /// Directional cuts: link → open-again time in nanoseconds
    /// (`u64::MAX` until explicitly healed).
    cuts: BTreeMap<(usize, usize), u64>,
    /// Fixed propagation delay added to every frame.
    pub base_delay: Duration,
    /// Uniform extra delay in `[0, jitter)` drawn per frame.
    pub jitter: Duration,
    /// Probability a frame is silently lost.
    pub drop_p: f64,
    /// Probability a frame is delivered twice (a retransmit duplicate).
    pub dup_p: f64,
    /// Frames dropped (loss or cut).
    pub dropped: u64,
    /// Duplicate deliveries scheduled.
    pub duplicated: u64,
}

impl SimNet {
    /// A network with the given base delay/jitter and loss/dup rates.
    pub fn new(base_delay: Duration, jitter: Duration, drop_p: f64, dup_p: f64) -> SimNet {
        SimNet {
            queue: BTreeMap::new(),
            seq: 0,
            fifo_floor: BTreeMap::new(),
            cuts: BTreeMap::new(),
            base_delay,
            jitter,
            drop_p,
            dup_p,
            dropped: 0,
            duplicated: 0,
        }
    }

    /// Whether the directional link `from → to` is cut at `now`.
    pub fn is_cut(&self, from: usize, to: usize, now: Duration) -> bool {
        self.cuts
            .get(&(from, to))
            .is_some_and(|until| *until > now.as_nanos() as u64)
    }

    /// Cuts the directional link until `until` (`None` = until healed).
    pub fn cut(&mut self, from: usize, to: usize, until: Option<Duration>) {
        let until = until.map_or(u64::MAX, |d| d.as_nanos() as u64);
        self.cuts.insert((from, to), until);
    }

    /// Reopens the directional link.
    pub fn heal(&mut self, from: usize, to: usize) {
        self.cuts.remove(&(from, to));
    }

    /// Reopens every link.
    pub fn heal_all(&mut self) {
        self.cuts.clear();
    }

    /// Sends `frame` from `from` to `to` at virtual time `now`. Returns
    /// `true` if at least one delivery was scheduled (frames on a cut
    /// link or lost to `drop_p` vanish without a trace at the receiver).
    pub fn send(
        &mut self,
        now: Duration,
        from: usize,
        to: usize,
        frame: Vec<u8>,
        rng: &mut SimRng,
    ) -> bool {
        if self.is_cut(from, to, now) {
            self.dropped += 1;
            return false;
        }
        if rng.chance(self.drop_p) {
            self.dropped += 1;
            return false;
        }
        let jitter_ns = (self.jitter.as_nanos() as f64 * rng.next_f64()) as u64;
        let at = now.as_nanos() as u64 + self.base_delay.as_nanos() as u64 + jitter_ns;
        let floor = self.fifo_floor.get(&(from, to)).copied().unwrap_or(0);
        let at = at.max(floor);
        self.fifo_floor.insert((from, to), at);
        self.seq += 1;
        self.queue.insert(
            (at, self.seq),
            Packet {
                from,
                to,
                frame: frame.clone(),
            },
        );
        if rng.chance(self.dup_p) {
            let extra = (self.jitter.as_nanos() as f64 * rng.next_f64()) as u64;
            let dup_at = at + self.base_delay.as_nanos() as u64 + extra;
            let dup_at = dup_at.max(self.fifo_floor.get(&(from, to)).copied().unwrap_or(0));
            self.fifo_floor.insert((from, to), dup_at);
            self.seq += 1;
            self.queue
                .insert((dup_at, self.seq), Packet { from, to, frame });
            self.duplicated += 1;
        }
        true
    }

    /// Sends `frame` reliably: immune to random loss and duplication,
    /// but still subject to link cuts, base delay, and FIFO ordering.
    ///
    /// Models signals the transport itself guarantees — a TCP connection
    /// close (EOF) is reliably observed by the peer unless the link is
    /// partitioned, unlike an individual datagram which `send` may drop.
    pub fn send_reliable(&mut self, now: Duration, from: usize, to: usize, frame: Vec<u8>) -> bool {
        if self.is_cut(from, to, now) {
            self.dropped += 1;
            return false;
        }
        let at = now.as_nanos() as u64 + self.base_delay.as_nanos() as u64;
        let floor = self.fifo_floor.get(&(from, to)).copied().unwrap_or(0);
        let at = at.max(floor);
        self.fifo_floor.insert((from, to), at);
        self.seq += 1;
        self.queue
            .insert((at, self.seq), Packet { from, to, frame });
        true
    }

    /// Removes and returns every packet due at or before `now`, in
    /// deterministic `(time, send order)` order.
    pub fn pop_due(&mut self, now: Duration) -> Vec<Packet> {
        let cutoff = now.as_nanos() as u64;
        let later = self.queue.split_off(&(cutoff + 1, 0));
        std::mem::replace(&mut self.queue, later)
            .into_values()
            .collect()
    }

    /// Number of frames still in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> SimNet {
        SimNet::new(Duration::from_millis(1), Duration::from_millis(2), 0.0, 0.0)
    }

    #[test]
    fn same_link_delivery_is_fifo_despite_jitter() {
        let mut net = net();
        let mut rng = SimRng::new(3);
        for i in 0..50u64 {
            net.send(Duration::from_micros(i * 10), 0, 1, vec![i as u8], &mut rng);
        }
        let packets = net.pop_due(Duration::from_secs(1));
        let order: Vec<u8> = packets.iter().map(|p| p.frame[0]).collect();
        let sorted: Vec<u8> = (0..50).collect();
        assert_eq!(order, sorted);
    }

    #[test]
    fn directional_cuts_drop_one_way_only() {
        let mut net = net();
        let mut rng = SimRng::new(3);
        net.cut(0, 1, None);
        assert!(!net.send(Duration::ZERO, 0, 1, vec![1], &mut rng));
        assert!(net.send(Duration::ZERO, 1, 0, vec![2], &mut rng));
        assert_eq!(net.dropped, 1);
        net.heal(0, 1);
        assert!(net.send(Duration::from_millis(1), 0, 1, vec![3], &mut rng));

        let mut timed = SimNet::new(Duration::ZERO, Duration::ZERO, 0.0, 0.0);
        timed.cut(0, 1, Some(Duration::from_millis(10)));
        assert!(timed.is_cut(0, 1, Duration::from_millis(9)));
        assert!(!timed.is_cut(0, 1, Duration::from_millis(10)));
    }

    #[test]
    fn pop_due_returns_only_ripe_packets() {
        let mut net = net();
        let mut rng = SimRng::new(9);
        net.send(Duration::ZERO, 0, 1, vec![1], &mut rng);
        assert!(net.pop_due(Duration::from_micros(500)).is_empty());
        assert_eq!(net.in_flight(), 1);
        assert_eq!(net.pop_due(Duration::from_millis(5)).len(), 1);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn duplication_schedules_a_second_delivery() {
        let mut net = SimNet::new(Duration::from_millis(1), Duration::ZERO, 0.0, 1.0);
        let mut rng = SimRng::new(11);
        net.send(Duration::ZERO, 0, 1, vec![7], &mut rng);
        let packets = net.pop_due(Duration::from_secs(1));
        assert_eq!(packets.len(), 2);
        assert_eq!(net.duplicated, 1);
    }
}
