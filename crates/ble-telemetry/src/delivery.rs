//! Bounded per-packet delivery accounting for the sharded radio medium.
//!
//! Dense-band worlds (exp6) ask a question the event stream answers only
//! implicitly: for each transmitted frame, *how many* receivers were
//! scheduled, how many were culled as unreachable, how many were elided as
//! unable to react, how many actually locked on, and how many completed
//! reception. The [`DeliveryTracker`] keeps this per-packet ledger the way
//! mcsim-style network simulators do — a bounded ring of recent packets
//! with old entries evicted in arrival order — plus monotone run totals
//! that survive eviction.
//!
//! The tracker is pure observation: the medium updates it outside every RNG
//! draw and event-schedule decision, so enabling it can never perturb a
//! simulation. The ledger is a ring of entries in ascending transmission
//! id (the medium hands ids out in start order), looked up by binary
//! search, so its snapshots are pure functions of the simulation history.

use std::collections::VecDeque;

/// Per-packet delivery ledger entry: one transmitted frame's fan-out.
///
/// `scheduled + culled + elided + suppressed` is the frame's peer count
/// (every node but the sender): each peer lands in exactly one class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketDelivery {
    /// Channel the frame was transmitted on (0–39).
    pub channel: u8,
    /// `RxStart` events the medium scheduled for this frame.
    pub scheduled: u32,
    /// Receivers skipped by the reachability cull (mean received power
    /// below the sensitivity floor minus the cull headroom).
    pub culled: u32,
    /// Listeners on the frame's channel whose edge was elided: unlocked
    /// and filtered to another access address or PHY, so the edge could
    /// not affect them (sharded mode only).
    pub elided: u32,
    /// Receivers the scheduler did not visit because they were not
    /// listening on the frame's channel (sharded mode only; always 0 under
    /// full broadcast).
    pub suppressed: u32,
    /// Receivers that locked onto the frame's preamble (times heard).
    pub heard: u32,
    /// Receivers that completed reception and were handed the frame.
    pub delivered: u32,
}

/// Monotone run totals: survive per-packet eviction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryTotals {
    /// Frames transmitted.
    pub tx_frames: u64,
    /// `RxStart` events scheduled across all frames.
    pub scheduled_rx_starts: u64,
    /// The part of `scheduled_rx_starts` queued after `TxStart`, when a
    /// receiver's radio changed while the frame was in flight.
    pub late_scheduled: u64,
    /// Receivers skipped by the reachability cull.
    pub culled_unreachable: u64,
    /// Listeners whose edge was elided as unable to affect them.
    pub elided: u64,
    /// Receivers skipped because they were not listening on the channel.
    pub suppressed_not_listening: u64,
    /// Frame receptions that locked (preamble heard).
    pub frames_heard: u64,
    /// Frame receptions completed and delivered to a listener.
    pub frames_delivered: u64,
    /// Per-packet ledger entries evicted by the capacity bound.
    pub evicted_packets: u64,
}

/// Bounded per-packet delivery tracker (see the module docs).
///
/// Capacity bounds only the *per-packet* ledger; the [`DeliveryTotals`] are
/// unconditional. Eviction is oldest-first by transmission id, which equals
/// transmission start order.
#[derive(Debug, Clone)]
pub struct DeliveryTracker {
    capacity: usize,
    /// Ledger entries in ascending transmission id, oldest first.
    packets: VecDeque<(u64, PacketDelivery)>,
    totals: DeliveryTotals,
}

impl DeliveryTracker {
    /// A tracker retaining per-packet entries for at most `capacity` recent
    /// frames (minimum 1).
    pub fn new(capacity: usize) -> Self {
        DeliveryTracker {
            capacity: capacity.max(1),
            packets: VecDeque::new(),
            totals: DeliveryTotals::default(),
        }
    }

    /// Records a transmitted frame and its scheduling fan-out, evicting the
    /// oldest ledger entries past the capacity bound. The four counts
    /// partition the frame's peers. Ids must ascend from call to call, as
    /// the medium's transmission ids do; debug builds assert it.
    pub fn on_tx(
        &mut self,
        tx_id: u64,
        channel: u8,
        scheduled: u32,
        culled: u32,
        elided: u32,
        suppressed: u32,
    ) {
        self.totals.tx_frames += 1;
        self.totals.scheduled_rx_starts += u64::from(scheduled);
        self.totals.culled_unreachable += u64::from(culled);
        self.totals.elided += u64::from(elided);
        self.totals.suppressed_not_listening += u64::from(suppressed);
        debug_assert!(
            self.packets.back().is_none_or(|&(last, _)| last < tx_id),
            "delivery ledger ids must ascend: #{tx_id} after #{:?}",
            self.packets.back().map(|&(last, _)| last)
        );
        self.packets.push_back((
            tx_id,
            PacketDelivery {
                channel,
                scheduled,
                culled,
                elided,
                suppressed,
                heard: 0,
                delivered: 0,
            },
        ));
        while self.packets.len() > self.capacity {
            self.packets.pop_front();
            self.totals.evicted_packets += 1;
        }
    }

    /// Where `tx_id`'s entry sits in the ledger, if retained.
    fn position(&self, tx_id: u64) -> Option<usize> {
        self.packets
            .binary_search_by_key(&tx_id, |&(id, _)| id)
            .ok()
    }

    fn entry_mut(&mut self, tx_id: u64) -> Option<&mut PacketDelivery> {
        let i = self.position(tx_id)?;
        self.packets.get_mut(i).map(|(_, p)| p)
    }

    /// Records one late-scheduled `RxStart` for an in-flight frame: a
    /// receiver that opened, retuned or locked after `TxStart` and can now
    /// react to the frame. The edge leaves a skipped class so the partition
    /// still sums to the peer count: `elided` while the frame has any left
    /// (the ledger does not know which class the receiver was in at
    /// `TxStart`), otherwise `suppressed`. An evicted frame decides by the
    /// totals instead.
    pub fn on_late_scheduled(&mut self, tx_id: u64) {
        let from_elided = match self.entry_mut(tx_id) {
            Some(p) => {
                p.scheduled = p.scheduled.saturating_add(1);
                let from_elided = p.elided > 0;
                if from_elided {
                    p.elided -= 1;
                } else {
                    p.suppressed = p.suppressed.saturating_sub(1);
                }
                from_elided
            }
            None => self.totals.elided > 0,
        };
        let t = &mut self.totals;
        t.scheduled_rx_starts += 1;
        t.late_scheduled += 1;
        if from_elided {
            t.elided -= 1;
        } else {
            t.suppressed_not_listening = t.suppressed_not_listening.saturating_sub(1);
        }
    }

    /// Records a receiver locking onto the frame's preamble.
    pub fn on_heard(&mut self, tx_id: u64) {
        self.totals.frames_heard += 1;
        if let Some(p) = self.entry_mut(tx_id) {
            p.heard = p.heard.saturating_add(1);
        }
    }

    /// Records a completed reception delivered to a listener.
    pub fn on_delivered(&mut self, tx_id: u64) {
        self.totals.frames_delivered += 1;
        if let Some(p) = self.entry_mut(tx_id) {
            p.delivered = p.delivered.saturating_add(1);
        }
    }

    /// The monotone run totals.
    pub fn totals(&self) -> DeliveryTotals {
        self.totals
    }

    /// The retained ledger entry for a frame, if not yet evicted.
    pub fn packet(&self, tx_id: u64) -> Option<PacketDelivery> {
        let i = self.position(tx_id)?;
        self.packets.get(i).map(|&(_, p)| p)
    }

    /// Retained ledger entries, oldest first.
    pub fn packets(&self) -> impl Iterator<Item = (u64, PacketDelivery)> + '_ {
        self.packets.iter().copied()
    }

    /// Number of retained ledger entries.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// The retention capacity this tracker was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Mean scheduled `RxStart` events per transmitted frame over the whole
    /// run (0 when nothing was transmitted) — the quantity the channel
    /// sharding optimisation reduces.
    pub fn mean_scheduled_per_frame(&self) -> f64 {
        if self.totals.tx_frames == 0 {
            0.0
        } else {
            self.totals.scheduled_rx_starts as f64 / self.totals.tx_frames as f64
        }
    }

    /// Mean completed deliveries per transmitted frame (per-frame reach).
    pub fn mean_reach(&self) -> f64 {
        if self.totals.tx_frames == 0 {
            0.0
        } else {
            self.totals.frames_delivered as f64 / self.totals.tx_frames as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_per_packet_counts() {
        let mut t = DeliveryTracker::new(8);
        t.on_tx(1, 5, 3, 1, 2, 10);
        t.on_heard(1);
        t.on_heard(1);
        t.on_delivered(1);
        let p = t.packet(1).expect("retained");
        assert_eq!(p.channel, 5);
        assert_eq!(p.scheduled, 3);
        assert_eq!(p.culled, 1);
        assert_eq!(p.elided, 2);
        assert_eq!(p.suppressed, 10);
        assert_eq!(p.heard, 2);
        assert_eq!(p.delivered, 1);
        assert_eq!(t.totals().tx_frames, 1);
        assert_eq!(t.totals().scheduled_rx_starts, 3);
        assert_eq!(t.totals().frames_heard, 2);
        assert_eq!(t.totals().frames_delivered, 1);
    }

    #[test]
    fn evicts_oldest_past_capacity_but_keeps_totals() {
        let mut t = DeliveryTracker::new(2);
        for id in 0..5u64 {
            t.on_tx(id, 0, 1, 0, 0, 0);
        }
        assert_eq!(t.len(), 2);
        assert!(t.packet(0).is_none(), "oldest evicted");
        assert!(t.packet(4).is_some(), "newest retained");
        assert_eq!(t.totals().tx_frames, 5);
        assert_eq!(t.totals().evicted_packets, 3);
        // Updates for evicted packets still land in the totals.
        t.on_heard(0);
        assert_eq!(t.totals().frames_heard, 1);
    }

    #[test]
    fn eviction_is_oldest_first_at_capacity() {
        let mut t = DeliveryTracker::new(3);
        for id in [3u64, 10, 11, 40] {
            t.on_tx(id, 0, 1, 0, 0, 0);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.totals().evicted_packets, 1);
        assert!(t.packet(3).is_none(), "oldest evicted first");
        for id in [10u64, 11, 40] {
            assert!(t.packet(id).is_some(), "#{id} retained");
        }
        t.on_tx(41, 0, 1, 0, 0, 0);
        assert!(t.packet(10).is_none(), "next-oldest evicted next");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn unknown_and_evicted_ids_have_no_entry() {
        let mut t = DeliveryTracker::new(2);
        assert!(t.packet(0).is_none(), "empty ledger");
        for id in [2u64, 5, 9] {
            t.on_tx(id, 0, 1, 0, 0, 0);
        }
        assert!(t.packet(2).is_none(), "evicted");
        assert!(t.packet(0).is_none(), "before the oldest, never seen");
        assert!(t.packet(7).is_none(), "in a gap, never seen");
        assert!(t.packet(12).is_none(), "past the newest, never seen");
        // Updates for ids without an entry touch only the totals.
        t.on_heard(7);
        t.on_delivered(12);
        assert_eq!(t.totals().frames_heard, 1);
        assert_eq!(t.totals().frames_delivered, 1);
        assert!(t.packets().all(|(_, p)| p.heard == 0 && p.delivered == 0));
    }

    #[test]
    fn packets_yield_oldest_first() {
        let mut t = DeliveryTracker::new(8);
        for (channel, id) in [1u64, 4, 6, 20, 21].into_iter().enumerate() {
            t.on_tx(id, u8::try_from(channel).unwrap_or(0), 1, 0, 0, 0);
        }
        t.on_delivered(6);
        let got: Vec<(u64, u8, u32)> = t
            .packets()
            .map(|(id, p)| (id, p.channel, p.delivered))
            .collect();
        assert_eq!(
            got,
            vec![(1, 0, 0), (4, 1, 0), (6, 2, 1), (20, 3, 0), (21, 4, 0)]
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ids must ascend")]
    fn out_of_order_ids_are_a_bug_in_debug_builds() {
        let mut t = DeliveryTracker::new(4);
        t.on_tx(5, 0, 1, 0, 0, 0);
        t.on_tx(4, 0, 1, 0, 0, 0);
    }

    #[test]
    fn late_scheduling_joins_the_ledger() {
        let mut t = DeliveryTracker::new(4);
        t.on_tx(7, 12, 2, 0, 0, 5);
        t.on_late_scheduled(7);
        assert_eq!(t.packet(7).expect("retained").scheduled, 3);
        assert_eq!(t.totals().scheduled_rx_starts, 3);
        assert_eq!(t.totals().late_scheduled, 1);
    }

    /// `scheduled + culled + elided + suppressed` of a ledger entry.
    fn classes(p: PacketDelivery) -> u32 {
        p.scheduled + p.culled + p.elided + p.suppressed
    }

    #[test]
    fn fan_out_classes_partition_the_peers_across_late_scheduling() {
        // 10 peers: 2 scheduled, 1 culled, 3 elided, 4 not listening.
        let mut t = DeliveryTracker::new(1);
        t.on_tx(0, 9, 2, 1, 3, 4);
        assert_eq!(classes(t.packet(0).expect("retained")), 10);
        // Four late edges: three drain `elided`, the fourth `suppressed`.
        for _ in 0..4 {
            t.on_late_scheduled(0);
            assert_eq!(classes(t.packet(0).expect("retained")), 10);
        }
        let p = t.packet(0).expect("retained");
        assert_eq!((p.scheduled, p.elided, p.suppressed), (6, 0, 3));
        // A second frame evicts the first; a late edge for the evicted
        // frame still keeps the totals partitioned.
        t.on_tx(1, 9, 1, 0, 9, 0);
        t.on_late_scheduled(0);
        let totals = t.totals();
        assert_eq!(
            totals.scheduled_rx_starts
                + totals.culled_unreachable
                + totals.elided
                + totals.suppressed_not_listening,
            20
        );
        assert_eq!(totals.scheduled_rx_starts, 8);
        assert_eq!(totals.elided, 8);
    }

    #[test]
    fn rates_are_zero_on_an_empty_run() {
        let t = DeliveryTracker::new(4);
        assert_eq!(t.mean_scheduled_per_frame(), 0.0);
        assert_eq!(t.mean_reach(), 0.0);
        assert!(t.is_empty());
        assert_eq!(t.capacity(), 4);
    }

    #[test]
    fn mean_rates() {
        let mut t = DeliveryTracker::new(8);
        t.on_tx(0, 0, 4, 0, 0, 0);
        t.on_tx(1, 0, 2, 0, 0, 0);
        t.on_delivered(0);
        t.on_delivered(0);
        t.on_delivered(1);
        assert_eq!(t.mean_scheduled_per_frame(), 3.0);
        assert_eq!(t.mean_reach(), 1.5);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let mut t = DeliveryTracker::new(0);
        t.on_tx(0, 0, 1, 0, 0, 0);
        t.on_tx(1, 0, 1, 0, 0, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.totals().evicted_packets, 1);
    }
}
