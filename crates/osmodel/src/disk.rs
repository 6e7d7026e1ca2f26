//! A bandwidth-limited disk.
//!
//! Only sequential write-back matters for the paper's millibottlenecks, so
//! the model is intentionally small: a fixed write bandwidth, a busy-time
//! accumulator, and a helper that converts a flush size into a duration.

use mlb_simkernel::time::SimDuration;

/// A disk with a fixed sequential write bandwidth.
///
/// # Examples
///
/// ```
/// use mlb_osmodel::disk::Disk;
/// use mlb_simkernel::time::SimDuration;
///
/// // The testbed's 7 200 RPM SATA disk: ~100 MB/s sequential writes.
/// let mut disk = Disk::new(100 * 1024 * 1024);
/// let d = disk.record_write(25 * 1024 * 1024);
/// assert_eq!(d, SimDuration::from_micros(250_000)); // 25 MB ≈ 250 ms
/// ```
#[derive(Debug, Clone)]
pub struct Disk {
    write_bandwidth_bytes_per_sec: u64,
    busy_micros: u64,
    bytes_written: u64,
    writes: u64,
}

impl Disk {
    /// Creates a disk with the given sequential write bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `write_bandwidth_bytes_per_sec` is zero.
    pub fn new(write_bandwidth_bytes_per_sec: u64) -> Self {
        assert!(
            write_bandwidth_bytes_per_sec > 0,
            "disk bandwidth must be positive"
        );
        Disk {
            write_bandwidth_bytes_per_sec,
            busy_micros: 0,
            bytes_written: 0,
            writes: 0,
        }
    }

    /// How long writing `bytes` takes, without recording it.
    pub fn write_duration(&self, bytes: u64) -> SimDuration {
        // micros = bytes * 1e6 / bw, rounded up so a flush never takes zero
        // time (u128 intermediate avoids overflow for multi-GB flushes).
        let micros = (u128::from(bytes) * 1_000_000)
            .div_ceil(u128::from(self.write_bandwidth_bytes_per_sec));
        SimDuration::from_micros(micros.min(u128::from(u64::MAX)) as u64)
    }

    /// Records a write of `bytes` and returns its duration.
    pub fn record_write(&mut self, bytes: u64) -> SimDuration {
        let d = self.write_duration(bytes);
        self.busy_micros = self.busy_micros.saturating_add(d.as_micros());
        self.bytes_written = self.bytes_written.saturating_add(bytes);
        self.writes += 1;
        d
    }

    /// Cumulative busy microseconds.
    pub fn busy_micros(&self) -> u64 {
        self.busy_micros
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Number of write operations recorded.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_scales_with_bytes() {
        let disk = Disk::new(1_000_000); // 1 MB/s
        assert_eq!(disk.write_duration(1_000_000), SimDuration::from_secs(1));
        assert_eq!(disk.write_duration(500_000), SimDuration::from_millis(500));
    }

    #[test]
    fn duration_rounds_up() {
        let disk = Disk::new(3_000_000);
        // 1 byte at 3 MB/s is a third of a microsecond — rounds to 1 us.
        assert_eq!(disk.write_duration(1), SimDuration::from_micros(1));
    }

    #[test]
    fn zero_bytes_takes_zero_time() {
        let disk = Disk::new(1_000);
        assert_eq!(disk.write_duration(0), SimDuration::ZERO);
    }

    #[test]
    fn record_write_accumulates() {
        let mut disk = Disk::new(1_000_000);
        disk.record_write(250_000);
        disk.record_write(250_000);
        assert_eq!(disk.busy_micros(), 500_000);
        assert_eq!(disk.bytes_written(), 500_000);
        assert_eq!(disk.writes(), 2);
    }

    #[test]
    fn huge_flush_does_not_overflow() {
        let disk = Disk::new(1);
        let d = disk.write_duration(u64::MAX / 2);
        assert!(d > SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        Disk::new(0);
    }
}
