//! Attack statistics — the measurements the paper's Figure 9 reports.

use ble_telemetry::Verdict;

/// Per-run injection statistics.
///
/// The paper's key metric is "the number of injection attempts before a
/// successful injection" (§VII): [`AttackStats::attempts_per_success`]
/// records exactly that, one entry per confirmed success.
#[derive(Debug, Clone, Default)]
pub struct AttackStats {
    /// Total injection attempts made.
    pub attempts_total: u32,
    /// Attempts since the last confirmed success.
    pub attempts_since_success: u32,
    /// For each confirmed success: how many attempts it took.
    pub attempts_per_success: Vec<u32>,
    /// Connections followed (sniffer synchronisations).
    pub connections_followed: u32,
    /// Connections lost while following (desynchronised or terminated).
    pub connections_lost: u32,
}

impl AttackStats {
    /// Records one attempt and its eq. 7 verdict. Counters saturate instead
    /// of wrapping: a release-mode campaign that somehow exceeds `u32::MAX`
    /// attempts must not fold its statistics back to zero.
    pub fn record(&mut self, verdict: Verdict) {
        self.attempts_total = self.attempts_total.saturating_add(1);
        self.attempts_since_success = self.attempts_since_success.saturating_add(1);
        if verdict == Verdict::Success {
            self.attempts_per_success.push(self.attempts_since_success);
            self.attempts_since_success = 0;
        }
    }

    /// Records one sniffer synchronisation (saturating).
    pub fn record_connection_followed(&mut self) {
        self.connections_followed = self.connections_followed.saturating_add(1);
    }

    /// Records one lost connection (saturating).
    pub fn record_connection_lost(&mut self) {
        self.connections_lost = self.connections_lost.saturating_add(1);
    }

    /// Number of confirmed successful injections.
    pub fn successes(&self) -> usize {
        self.attempts_per_success.len()
    }

    /// Attempts needed for the first success, if any succeeded.
    pub fn attempts_to_first_success(&self) -> Option<u32> {
        self.attempts_per_success.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_attempts_per_success() {
        let mut s = AttackStats::default();
        s.record(Verdict::NoResponse);
        s.record(Verdict::Rejected);
        s.record(Verdict::Success);
        s.record(Verdict::Success);
        s.record(Verdict::Rejected);
        assert_eq!(s.attempts_total, 5);
        assert_eq!(s.attempts_per_success, vec![3, 1]);
        assert_eq!(s.successes(), 2);
        assert_eq!(s.attempts_to_first_success(), Some(3));
        assert_eq!(s.attempts_since_success, 1);
    }

    #[test]
    fn empty_stats() {
        let s = AttackStats::default();
        assert_eq!(s.successes(), 0);
        assert_eq!(s.attempts_to_first_success(), None);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut s = AttackStats {
            attempts_total: u32::MAX,
            attempts_since_success: u32::MAX,
            connections_followed: u32::MAX,
            connections_lost: u32::MAX,
            ..AttackStats::default()
        };
        s.record(Verdict::Rejected);
        assert_eq!(s.attempts_total, u32::MAX);
        assert_eq!(s.attempts_since_success, u32::MAX);
        s.record_connection_followed();
        s.record_connection_lost();
        assert_eq!(s.connections_followed, u32::MAX);
        assert_eq!(s.connections_lost, u32::MAX);
        // A success still resets the per-success counter.
        s.record(Verdict::Success);
        assert_eq!(s.attempts_since_success, 0);
        assert_eq!(s.attempts_per_success, vec![u32::MAX]);
    }
}
