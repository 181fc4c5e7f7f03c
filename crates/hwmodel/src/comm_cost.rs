//! Communication cost model: point-to-point messages and collectives.

use vibe_prof::{CollectiveOp, CommTotals};

/// Cost parameters for intra-node MPI communication (and the inter-node
/// penalty used in the multi-node analysis of §V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommCosts {
    /// Per-message software latency for remote (inter-rank) sends.
    pub remote_latency: f64,
    /// Effective bandwidth for remote messages (shared-memory transport on
    /// one node), bytes/s.
    pub remote_bw: f64,
    /// Effective bandwidth for local (same-rank) buffer copies, bytes/s.
    pub local_bw: f64,
    /// Base latency of one collective operation.
    pub collective_base: f64,
    /// Additional collective latency per log2(ranks) step.
    pub collective_log: f64,
    /// Additional collective latency per rank (linear resource/contention
    /// term — the cost that turns extra ranks counterproductive, Fig. 8).
    pub collective_linear: f64,
    /// Collective payload bandwidth, bytes/s.
    pub collective_bw: f64,
    /// Latency multiplier for messages crossing a node boundary (§V).
    pub internode_latency_factor: f64,
    /// Bandwidth for inter-node messages, bytes/s.
    pub internode_bw: f64,
}

impl CommCosts {
    /// The calibrated intra-node (and inter-node) costs: the one
    /// communication cost table.
    pub const CALIBRATED: Self = Self {
        remote_latency: 9.0e-6,
        remote_bw: 11.0e9,
        local_bw: 42.0e9,
        collective_base: 14.0e-6,
        collective_log: 10.0e-6,
        collective_linear: 2.8e-6,
        collective_bw: 4.0e9,
        internode_latency_factor: 3.0,
        internode_bw: 6.0e9,
    };

    /// Seconds of one point-to-point message of `bytes` — the per-message
    /// primitive the timeline simulator schedules individually. Local
    /// copies are pure bandwidth on the host; remote messages pay the
    /// software latency plus transport bandwidth (the inter-node variant
    /// multiplies latency and swaps the bandwidth). Summing this over every
    /// message reproduces the numerator of [`CommCosts::p2p_seconds`].
    pub fn message_seconds(&self, bytes: u64, local: bool, internode: bool) -> f64 {
        if local {
            bytes as f64 / self.local_bw
        } else if internode {
            self.remote_latency * self.internode_latency_factor + bytes as f64 / self.internode_bw
        } else {
            self.remote_latency + bytes as f64 / self.remote_bw
        }
    }

    /// The software-latency part of [`CommCosts::message_seconds`] — the
    /// host-side cost of posting a remote send (zero for local copies),
    /// charged to the sending rank's timeline by the simulator while the
    /// payload transfer occupies the NIC/DMA channel.
    pub fn message_host_seconds(&self, local: bool, internode: bool) -> f64 {
        if local {
            0.0
        } else if internode {
            self.remote_latency * self.internode_latency_factor
        } else {
            self.remote_latency
        }
    }

    /// Wall seconds of point-to-point traffic in `totals`, spread over
    /// `ranks` concurrently communicating processes. `internode_fraction`
    /// of remote messages cross a node boundary (0 on one node).
    pub fn p2p_seconds(&self, totals: &CommTotals, ranks: usize, internode_fraction: f64) -> f64 {
        let r = ranks.max(1) as f64;
        let intra = 1.0 - internode_fraction;
        let remote_msgs = totals.p2p_remote_messages as f64;
        let remote_bytes = totals.p2p_remote_bytes as f64;
        let t_remote_intra =
            intra * (remote_msgs * self.remote_latency + remote_bytes / self.remote_bw);
        let t_remote_inter = internode_fraction
            * (remote_msgs * self.remote_latency * self.internode_latency_factor
                + remote_bytes / self.internode_bw);
        let t_local = totals.p2p_local_bytes as f64 / self.local_bw;
        (t_remote_intra + t_remote_inter + t_local) / r
    }

    /// Wall seconds of one collective over `ranks` ranks moving `bytes`.
    pub fn collective_seconds_one(&self, ranks: usize, bytes: u64) -> f64 {
        let r = ranks.max(1) as f64;
        if ranks <= 1 {
            return 0.0;
        }
        self.collective_base
            + self.collective_log * r.log2()
            + self.collective_linear * r
            + bytes as f64 / self.collective_bw
    }

    /// Wall seconds of all collectives in `totals` over `ranks` ranks.
    pub fn collective_seconds(&self, totals: &CommTotals, ranks: usize) -> f64 {
        totals
            .collectives
            .values()
            .map(|&(count, bytes)| {
                let avg = bytes.checked_div(count).unwrap_or(0);
                count as f64 * self.collective_seconds_one(ranks, avg)
            })
            .sum()
    }

    /// Total communication wall seconds.
    pub fn seconds(&self, totals: &CommTotals, ranks: usize, internode_fraction: f64) -> f64 {
        self.p2p_seconds(totals, ranks, internode_fraction) + self.collective_seconds(totals, ranks)
    }
}

/// Convenience: builds a [`CommTotals`] for tests and calibration.
pub fn comm_totals(
    local: (u64, u64),
    remote: (u64, u64),
    cells: u64,
    collectives: &[(CollectiveOp, u64, u64)],
) -> CommTotals {
    let mut t = CommTotals {
        p2p_local_messages: local.0,
        p2p_local_bytes: local.1,
        p2p_remote_messages: remote.0,
        p2p_remote_bytes: remote.1,
        cells_communicated: cells,
        ..CommTotals::default()
    };
    for &(op, count, bytes) in collectives {
        t.collectives.insert(op, (count, bytes));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_copies_cheaper_than_remote_messages() {
        let c = CommCosts::CALIBRATED;
        let local = comm_totals((100, 100 << 20), (0, 0), 0, &[]);
        let remote = comm_totals((0, 0), (100, 100 << 20), 0, &[]);
        assert!(c.seconds(&local, 1, 0.0) < c.seconds(&remote, 1, 0.0));
    }

    #[test]
    fn collective_cost_grows_with_ranks() {
        let c = CommCosts::CALIBRATED;
        let t2 = c.collective_seconds_one(2, 1024);
        let t12 = c.collective_seconds_one(12, 1024);
        let t96 = c.collective_seconds_one(96, 1024);
        assert!(t2 < t12 && t12 < t96);
        assert_eq!(
            c.collective_seconds_one(1, 1024),
            0.0,
            "no collective alone"
        );
    }

    #[test]
    fn p2p_parallelizes_across_ranks() {
        let c = CommCosts::CALIBRATED;
        let t = comm_totals((0, 0), (1000, 1 << 30), 0, &[]);
        let w1 = c.p2p_seconds(&t, 1, 0.0);
        let w8 = c.p2p_seconds(&t, 8, 0.0);
        assert!((w1 / w8 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn per_message_primitive_sums_to_p2p_seconds() {
        let c = CommCosts::CALIBRATED;
        let t = comm_totals((5, 5 << 12), (100, 100 << 16), 0, &[]);
        let summed = (0..5)
            .map(|_| c.message_seconds(1 << 12, true, false))
            .sum::<f64>()
            + (0..100)
                .map(|_| c.message_seconds(1 << 16, false, false))
                .sum::<f64>();
        assert!((summed - c.p2p_seconds(&t, 1, 0.0)).abs() / summed < 1e-12);
        // Host-side latency share is bounded by the full message cost.
        assert!(c.message_host_seconds(false, false) < c.message_seconds(1, false, false));
        assert_eq!(c.message_host_seconds(true, false), 0.0);
    }

    #[test]
    fn internode_messages_cost_more() {
        let c = CommCosts::CALIBRATED;
        let t = comm_totals((0, 0), (1000, 1 << 30), 0, &[]);
        let intra = c.p2p_seconds(&t, 4, 0.0);
        let inter = c.p2p_seconds(&t, 4, 0.5);
        assert!(inter > intra);
    }

    #[test]
    fn collective_totals_use_per_event_size() {
        let c = CommCosts::CALIBRATED;
        let t = comm_totals(
            (0, 0),
            (0, 0),
            0,
            &[
                (CollectiveOp::AllReduce, 10, 80),
                (CollectiveOp::AllGather, 2, 4096),
            ],
        );
        let total = c.collective_seconds(&t, 8);
        let expect =
            10.0 * c.collective_seconds_one(8, 8) + 2.0 * c.collective_seconds_one(8, 2048);
        assert!((total - expect).abs() < 1e-12);
    }
}
