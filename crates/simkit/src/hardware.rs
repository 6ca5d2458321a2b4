//! Hardware models: disks, NICs, and whole nodes.
//!
//! Calibrated defaults mirror the paper's testbed machines: two Xeon L5640
//! processors (12 physical cores), 32 GB RAM, one SATA hard drive, and
//! gigabit Ethernet, all in a single rack.

use crate::resource::{FifoResource, MultiServer};
use crate::time::{transfer_time, SimTime};

/// Performance profile of a spinning disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskProfile {
    /// Average positioning cost (seek + rotational latency) per random access.
    pub seek_us: u64,
    /// Sequential read bandwidth, bytes/second.
    pub read_bw: u64,
    /// Sequential write bandwidth, bytes/second.
    pub write_bw: u64,
}

impl DiskProfile {
    /// A 7200 RPM SATA drive of the paper's era: ~8 ms positioning,
    /// ~120 MB/s sequential.
    pub(crate) const fn sata_7200rpm() -> Self {
        Self {
            seek_us: 8_000,
            read_bw: 120_000_000,
            write_bw: 110_000_000,
        }
    }
}

/// A single spindle with FIFO head scheduling.
#[derive(Debug, Clone)]
pub struct Disk {
    profile: DiskProfile,
    queue: FifoResource,
    read_bytes: u64,
    written_bytes: u64,
    degrade: u32,
}

impl Disk {
    /// Create an idle disk with the given profile.
    pub(crate) fn new(profile: DiskProfile) -> Self {
        Self {
            profile,
            queue: FifoResource::new(),
            read_bytes: 0,
            written_bytes: 0,
            degrade: 1,
        }
    }

    #[inline]
    fn service(&mut self, now: SimTime, duration: u64) -> SimTime {
        self.queue.acquire(now, duration * u64::from(self.degrade))
    }

    /// Random read of `bytes` (one positioning cost plus transfer).
    pub fn random_read(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.read_bytes += bytes;
        let d = self.profile.seek_us + transfer_time(bytes, self.profile.read_bw);
        self.service(now, d)
    }

    /// Sequential read of `bytes` (transfer only; head already positioned).
    pub fn seq_read(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.read_bytes += bytes;
        let d = transfer_time(bytes, self.profile.read_bw);
        self.service(now, d)
    }

    /// Random write of `bytes` (positioning plus transfer).
    pub fn random_write(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.written_bytes += bytes;
        let d = self.profile.seek_us + transfer_time(bytes, self.profile.write_bw);
        self.service(now, d)
    }

    /// Sequential (log-style) write of `bytes`.
    pub fn seq_write(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.written_bytes += bytes;
        let d = transfer_time(bytes, self.profile.write_bw);
        self.service(now, d)
    }

    /// Multiply every subsequent service time by `factor` (fault injection:
    /// a transiently slow disk). `1` restores nominal speed; `0` is clamped
    /// to `1`.
    pub(crate) fn set_degrade(&mut self, factor: u32) {
        self.degrade = factor.max(1);
    }

    /// Busy fraction over `elapsed`.
    pub fn utilization(&self, elapsed: u64) -> f64 {
        self.queue.utilization(elapsed)
    }

    /// Total bytes read since the last stats reset.
    #[cfg(test)]
    pub(crate) fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Total bytes written since the last stats reset.
    pub fn written_bytes(&self) -> u64 {
        self.written_bytes
    }
}

/// Performance profile of a network interface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicProfile {
    /// Line-rate bandwidth, bytes/second.
    pub bw: u64,
    /// One-way propagation delay to a same-rack peer, microseconds.
    pub prop_us: u64,
}

impl NicProfile {
    /// Gigabit Ethernet within one rack: 125 MB/s, 50 µs one-way.
    pub(crate) const fn gige() -> Self {
        Self {
            bw: 125_000_000,
            prop_us: 50,
        }
    }
}

/// A full-duplex NIC modeled as per-message serialization delay plus
/// bandwidth *accounting* (no FIFO head-of-line blocking).
///
/// Rationale: callers reserve link time at instants that can lie in the
/// simulated future (e.g. a response transmitted after a disk read
/// completes). A strict FIFO reservation would then block *earlier* sends
/// behind that future reservation — a pure modeling artifact. At gigabit
/// line rate the request/response messages here serialize in single-digit
/// microseconds, so contention between them is negligible next to the
/// millisecond disk times being measured; bulk flows (flushes, compactions,
/// re-replication) still pay their full serialization time and show up in
/// the utilization counters.
#[derive(Debug, Clone)]
pub struct Nic {
    profile: NicProfile,
    tx_busy_us: u64,
    rx_busy_us: u64,
    tx_msgs: u64,
    rx_msgs: u64,
    extra_tx_us: u64,
}

impl Nic {
    /// Create an idle NIC.
    pub(crate) fn new(profile: NicProfile) -> Self {
        Self {
            profile,
            tx_busy_us: 0,
            rx_busy_us: 0,
            tx_msgs: 0,
            rx_msgs: 0,
            extra_tx_us: 0,
        }
    }

    /// Serialize `bytes` onto the wire starting at `now`; returns the instant
    /// the last byte leaves this host (including any injected egress delay).
    pub fn tx(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let t = transfer_time(bytes, self.profile.bw);
        self.tx_busy_us += t;
        self.tx_msgs += 1;
        now + t + self.extra_tx_us
    }

    /// Add a fixed delay to every subsequent transmitted message (fault
    /// injection: a transiently congested or flaky uplink). `0` restores
    /// nominal latency. The delay models queueing ahead of the NIC, so it
    /// does not count toward bandwidth utilization.
    pub(crate) fn set_extra_delay(&mut self, extra_us: u64) {
        self.extra_tx_us = extra_us;
    }

    /// Account for receiving `bytes` whose first bit arrives at `at`; returns
    /// the instant the message is fully received.
    pub fn rx(&mut self, at: SimTime, bytes: u64) -> SimTime {
        let t = transfer_time(bytes, self.profile.bw);
        self.rx_busy_us += t;
        self.rx_msgs += 1;
        at + t
    }

    /// Transmit-side utilization over `elapsed`.
    pub fn tx_utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.tx_busy_us as f64 / elapsed as f64
        }
    }

    /// Receive-side utilization over `elapsed`.
    pub fn rx_utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.rx_busy_us as f64 / elapsed as f64
        }
    }

    /// Messages transmitted since the last stats reset.
    #[cfg(test)]
    pub(crate) fn tx_msgs(&self) -> u64 {
        self.tx_msgs
    }
}

/// Performance profile of a whole server machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeProfile {
    /// Physical CPU cores available to request processing.
    pub cores: u32,
    /// Disk profile (one data drive per machine, as in the paper).
    pub disk: DiskProfile,
    /// NIC profile.
    pub nic: NicProfile,
}

impl NodeProfile {
    /// The paper's testbed machine: 2× Xeon L5640 (12 physical cores),
    /// 32 GB RAM, one SATA HDD, 1 GbE.
    pub const fn paper_testbed() -> Self {
        Self {
            cores: 12,
            disk: DiskProfile::sata_7200rpm(),
            nic: NicProfile::gige(),
        }
    }
}

impl Default for NodeProfile {
    fn default() -> Self {
        Self::paper_testbed()
    }
}

/// The simulated hardware of one server: CPU cores, one disk, one NIC, and an
/// up/down flag for failure experiments.
#[derive(Debug, Clone)]
pub struct NodeHw {
    /// CPU cores as a multi-server FIFO resource.
    pub cpu: MultiServer,
    /// The machine's single data disk.
    pub disk: Disk,
    /// The machine's NIC.
    pub nic: Nic,
    up: bool,
}

impl NodeHw {
    /// Build a node from a profile.
    pub fn new(profile: NodeProfile) -> Self {
        Self {
            cpu: MultiServer::new(profile.cores),
            disk: Disk::new(profile.disk),
            nic: Nic::new(profile.nic),
            up: true,
        }
    }

    /// True while the node is serving requests.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Crash the node (used by availability/failover experiments).
    pub fn fail(&mut self) {
        self.up = false;
    }

    /// Bring the node back online.
    pub fn recover(&mut self) {
        self.up = true;
    }

    /// Enter a degraded-disk window: service times multiply by `factor`.
    pub fn degrade_disk(&mut self, factor: u32) {
        self.disk.set_degrade(factor);
    }

    /// End a degraded-disk window.
    pub fn restore_disk(&mut self) {
        self.disk.set_degrade(1);
    }

    /// Enter a network-delay window: every transmitted message pays an
    /// extra `extra_us`.
    pub fn delay_net(&mut self, extra_us: u64) {
        self.nic.set_extra_delay(extra_us);
    }

    /// End a network-delay window.
    pub fn restore_net(&mut self) {
        self.nic.set_extra_delay(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_read_pays_seek_plus_transfer() {
        let mut d = Disk::new(DiskProfile::sata_7200rpm());
        // 120 MB/s => 64 KiB takes ceil(65536 * 1e6 / 120e6) = 547us.
        let done = d.random_read(0, 64 * 1024);
        assert_eq!(done, 8_000 + 547);
        assert_eq!(d.read_bytes(), 64 * 1024);
    }

    #[test]
    fn seq_write_skips_seek() {
        let mut d = Disk::new(DiskProfile::sata_7200rpm());
        let done = d.seq_write(0, 110_000_000);
        assert_eq!(done, 1_000_000);
        assert_eq!(d.written_bytes(), 110_000_000);
    }

    #[test]
    fn disk_requests_queue_fifo() {
        let mut d = Disk::new(DiskProfile::sata_7200rpm());
        let a = d.random_read(0, 0);
        let b = d.random_read(0, 0);
        assert_eq!(a, 8_000);
        assert_eq!(b, 16_000);
    }

    #[test]
    fn nic_tx_serialization_time() {
        let mut n = Nic::new(NicProfile::gige());
        // 125 MB/s => 1 KiB = ceil(1024e6/125e6) = 9us.
        assert_eq!(n.tx(0, 1024), 9);
        // No head-of-line blocking: a concurrent message pays only its own
        // serialization time; contention shows up in utilization instead.
        assert_eq!(n.tx(0, 1024), 9);
        assert_eq!(n.tx_msgs(), 2);
        assert!((n.tx_utilization(18) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nic_rx_independent_of_tx() {
        let mut n = Nic::new(NicProfile::gige());
        n.tx(0, 1_000_000);
        assert_eq!(n.rx(0, 1024), 9);
        assert!(n.rx_utilization(100) > 0.0);
    }

    #[test]
    fn nic_future_reservation_does_not_delay_earlier_sends() {
        // The regression this model exists to avoid: a response reserved at
        // t=10_000 must not push a t=0 request to t>10_000.
        let mut n = Nic::new(NicProfile::gige());
        assert_eq!(n.tx(10_000, 1024), 10_009);
        assert_eq!(n.tx(0, 1024), 9);
    }

    #[test]
    fn node_failure_toggles() {
        let mut node = NodeHw::new(NodeProfile::paper_testbed());
        assert!(node.is_up());
        node.fail();
        assert!(!node.is_up());
        node.recover();
        assert!(node.is_up());
    }

    #[test]
    fn paper_testbed_matches_paper_hardware() {
        let p = NodeProfile::paper_testbed();
        assert_eq!(p.cores, 12);
        assert_eq!(p.nic.bw, 125_000_000);
    }

    #[test]
    fn degraded_disk_multiplies_service_times() {
        let mut d = Disk::new(DiskProfile::sata_7200rpm());
        d.set_degrade(4);
        assert_eq!(d.random_read(0, 64 * 1024), 4 * (8_000 + 547));
        d.set_degrade(1);
        // Healthy again: next request only queues behind the slow one.
        assert_eq!(d.random_read(0, 0), 8_000 + 4 * (8_000 + 547));
        // Factor 0 is clamped to 1, never a free disk.
        d.set_degrade(0);
        assert_eq!(d.degrade, 1);
    }

    #[test]
    fn nic_extra_delay_shifts_tx_only() {
        let mut n = Nic::new(NicProfile::gige());
        n.set_extra_delay(500);
        assert_eq!(n.tx(0, 1024), 509);
        assert_eq!(n.rx(0, 1024), 9, "rx is not delayed");
        n.set_extra_delay(0);
        assert_eq!(n.tx(0, 1024), 9);
        // Delay models queueing ahead of the NIC: utilization unchanged.
        assert!((n.tx_utilization(18) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn node_hw_fault_helpers_round_trip() {
        let mut node = NodeHw::new(NodeProfile::paper_testbed());
        node.degrade_disk(8);
        node.delay_net(250);
        assert_eq!(node.disk.degrade, 8);
        assert_eq!(node.nic.tx(0, 1024), 259);
        node.restore_disk();
        node.restore_net();
        assert_eq!(node.disk.degrade, 1);
        assert_eq!(node.nic.tx(0, 1024), 9);
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut d = Disk::new(DiskProfile::sata_7200rpm());
        d.random_read(0, 0); // 8000us busy
        assert!((d.utilization(16_000) - 0.5).abs() < 1e-9);
    }
}
