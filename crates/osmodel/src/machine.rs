//! A simulated server machine: CPU + page cache + disk, wired so that a
//! page-cache flush freezes the CPU.
//!
//! This is the millibottleneck generator. The paper's causal chain
//! (Fig. 2c–e) is reproduced verbatim:
//!
//! 1. request handling appends to log files → dirty pages accumulate
//!    ([`Machine::log_write`]);
//! 2. pdflush wakes up periodically ([`Machine::pdflush_wake`]) or the hard
//!    dirty limit is crossed → write-back begins
//!    ([`Machine::begin_flush`]);
//! 3. the write-back saturates iowait, so foreground request processing
//!    stalls for the flush duration (the CPU is frozen);
//! 4. the flush ends ([`Machine::end_flush`]): dirty bytes drop abruptly,
//!    the CPU thaws, and paused work resumes.
//!
//! The event-loop owner drives the dance:
//!
//! ```
//! use mlb_osmodel::machine::{Machine, MachineConfig};
//! use mlb_osmodel::pagecache::{FlushTrigger, PageCacheConfig};
//! use mlb_simkernel::time::{SimDuration, SimTime};
//!
//! let mut m = Machine::new(MachineConfig {
//!     cores: 4,
//!     disk_write_bandwidth: 100 * 1024 * 1024,
//!     page_cache: Some(PageCacheConfig::testbed_default()),
//!     gc: None,
//! });
//! // Requests dirty the log files...
//! for _ in 0..10_000 {
//!     m.log_write(1_500);
//! }
//! // ...pdflush wakes up and decides to flush:
//! let now = SimTime::from_secs(5);
//! if let Some(trigger) = m.pdflush_wake() {
//!     let flush = m.begin_flush(now, trigger);
//!     assert!(flush.duration > SimDuration::from_millis(100)); // a millibottleneck!
//!     let restarted = m.end_flush(now + flush.duration);
//!     assert!(restarted.is_empty()); // no bursts were in flight
//! }
//! ```

use crate::cpu::{CpuModel, StartedBurst};
use crate::disk::Disk;
use crate::pagecache::{FlushTrigger, PageCache, PageCacheConfig};
use mlb_simkernel::time::{SimDuration, SimTime};

/// Periodic stop-the-world garbage-collection pauses (the paper's other
/// canonical millibottleneck cause besides dirty-page flushing: "Java
/// garbage collection at the system software layer").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcConfig {
    /// Time between collections.
    pub period: SimDuration,
    /// Stop-the-world pause length (tens to hundreds of milliseconds for
    /// a millibottleneck).
    pub pause: SimDuration,
}

impl GcConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message if either duration is zero or the pause is not
    /// shorter than the period.
    pub fn validate(&self) -> Result<(), String> {
        if self.period.is_zero() || self.pause.is_zero() {
            return Err("GC period and pause must be positive".into());
        }
        if self.pause >= self.period {
            return Err("GC pause must be shorter than its period".into());
        }
        Ok(())
    }
}

/// Static description of a machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// CPU cores (the testbed's d710 nodes: a quad-core Xeon E5530).
    pub cores: usize,
    /// Sequential disk write bandwidth in bytes/second.
    pub disk_write_bandwidth: u64,
    /// Page-cache write-back policy; `None` means this machine performs no
    /// logging and cannot millibottleneck via flushing.
    pub page_cache: Option<PageCacheConfig>,
    /// Optional stop-the-world GC pauses (an alternative millibottleneck
    /// cause).
    pub gc: Option<GcConfig>,
}

impl MachineConfig {
    /// Validates internal consistency, the page-cache and GC configs
    /// included.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("cores must be positive".into());
        }
        if self.disk_write_bandwidth == 0 {
            return Err("disk_write_bandwidth must be positive".into());
        }
        if let Some(pc) = &self.page_cache {
            pc.validate().map_err(|e| format!("page_cache: {e}"))?;
        }
        if let Some(gc) = &self.gc {
            gc.validate().map_err(|e| format!("gc: {e}"))?;
        }
        Ok(())
    }

    /// The paper's d710 node with write-back enabled at testbed defaults.
    pub fn d710() -> Self {
        MachineConfig {
            cores: 4,
            disk_write_bandwidth: 100 * 1024 * 1024,
            page_cache: Some(PageCacheConfig::testbed_default()),
            gc: None,
        }
    }

    /// A d710 node whose millibottlenecks come from stop-the-world GC
    /// pauses instead of dirty-page flushing.
    pub fn d710_gc(gc: GcConfig) -> Self {
        MachineConfig {
            page_cache: Some(PageCacheConfig::effectively_disabled()),
            gc: Some(gc),
            ..MachineConfig::d710()
        }
    }

    /// A d710 node with the paper's millibottleneck-elimination remedy
    /// applied (huge dirty buffer + 600 s interval).
    pub fn d710_no_millibottleneck() -> Self {
        MachineConfig {
            page_cache: Some(PageCacheConfig::effectively_disabled()),
            ..MachineConfig::d710()
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::d710()
    }
}

/// A flush that has just begun; the CPU is now frozen until the owner calls
/// [`Machine::end_flush`] at `started_at + duration`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushInProgress {
    /// Bytes being written back.
    pub bytes: u64,
    /// How long the write-back (and therefore the freeze) lasts.
    pub duration: SimDuration,
    /// What started the flush.
    pub trigger: FlushTrigger,
}

/// A server machine composed of CPU, page cache and disk.
#[derive(Debug, Clone)]
pub struct Machine {
    /// The CPU; exposed because request models submit bursts directly.
    pub cpu: CpuModel,
    page_cache: Option<PageCache>,
    disk: Disk,
    gc: Option<GcConfig>,
    active_flush: Option<FlushInProgress>,
    gc_in_progress: bool,
    millibottlenecks: u64,
}

impl Machine {
    /// Builds a machine from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`MachineConfig::validate`] rejects `config`.
    pub fn new(config: MachineConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid MachineConfig: {msg}");
        }
        Machine {
            cpu: CpuModel::new(config.cores),
            page_cache: config.page_cache.map(PageCache::new),
            disk: Disk::new(config.disk_write_bandwidth),
            gc: config.gc,
            active_flush: None,
            gc_in_progress: false,
            millibottlenecks: 0,
        }
    }

    /// The disk (read-only view; flush bookkeeping goes through the
    /// machine).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Current dirty page-cache bytes (0 for machines without logging).
    pub fn dirty_bytes(&self) -> u64 {
        self.page_cache.as_ref().map_or(0, PageCache::dirty_bytes)
    }

    /// The pdflush wakeup period, if this machine has a page cache.
    pub fn flush_interval(&self) -> Option<SimDuration> {
        self.page_cache
            .as_ref()
            .map(|pc| pc.config().flush_interval)
    }

    /// `true` while a flush (millibottleneck) is in progress.
    pub fn is_flushing(&self) -> bool {
        self.active_flush.is_some()
    }

    /// `true` while anything (flush or GC) is freezing this machine.
    pub fn is_stalled(&self) -> bool {
        self.active_flush.is_some() || self.gc_in_progress
    }

    /// The GC schedule, if this machine collects garbage.
    pub fn gc_config(&self) -> Option<GcConfig> {
        self.gc
    }

    /// Starts a stop-the-world GC pause: freezes the CPU. Returns `false`
    /// (and does nothing) if the machine is already stalled by a flush or
    /// another collection.
    pub fn begin_gc(&mut self, now: SimTime) -> bool {
        if self.is_stalled() {
            return false;
        }
        self.cpu.freeze(now);
        self.gc_in_progress = true;
        self.millibottlenecks += 1;
        true
    }

    /// Ends the GC pause: thaws the CPU and returns the resumed bursts so
    /// the driver can schedule their completions.
    ///
    /// # Panics
    ///
    /// Panics if no collection is in progress.
    pub fn end_gc(&mut self, now: SimTime) -> Vec<StartedBurst> {
        assert!(self.gc_in_progress, "end_gc without begin_gc");
        self.gc_in_progress = false;
        self.cpu.unfreeze(now)
    }

    /// The flush currently freezing the machine, if any.
    pub fn active_flush(&self) -> Option<FlushInProgress> {
        self.active_flush
    }

    /// Total millibottlenecks (flushes) this machine has experienced.
    pub fn millibottleneck_count(&self) -> u64 {
        self.millibottlenecks
    }

    /// Records a log append of `bytes`. Returns a trigger if this write
    /// crossed the hard dirty limit and a flush must start immediately.
    pub fn log_write(&mut self, bytes: u64) -> Option<FlushTrigger> {
        self.page_cache.as_mut()?.write(bytes)
    }

    /// pdflush wakeup: returns a trigger if enough dirty bytes accumulated
    /// to start a write-back.
    pub fn pdflush_wake(&mut self) -> Option<FlushTrigger> {
        match &self.page_cache {
            Some(pc) if pc.wants_interval_flush() => Some(FlushTrigger::Interval),
            _ => None,
        }
    }

    /// Starts the write-back: freezes the CPU (iowait saturation) and
    /// returns the flush descriptor. The owner must call
    /// [`Machine::end_flush`] exactly `duration` later.
    ///
    /// # Panics
    ///
    /// Panics if a flush is already in progress or the machine has no page
    /// cache.
    pub fn begin_flush(&mut self, now: SimTime, trigger: FlushTrigger) -> FlushInProgress {
        assert!(self.active_flush.is_none(), "flush already in progress");
        let pc = self
            .page_cache
            .as_mut()
            .expect("begin_flush on a machine without a page cache");
        let bytes = pc.begin_flush(trigger);
        let duration = self.disk.record_write(bytes);
        // A zero-byte flush would freeze for zero time; still freeze for
        // 1 us so the begin/end protocol stays uniform.
        let duration = duration.max(SimDuration::from_micros(1));
        self.cpu.freeze(now);
        self.millibottlenecks += 1;
        let flush = FlushInProgress {
            bytes,
            duration,
            trigger,
        };
        self.active_flush = Some(flush);
        flush
    }

    /// Ends the write-back: dirty bytes drop, the CPU thaws, and all bursts
    /// that resumed (or started from the run queue) are returned so their
    /// completions can be scheduled.
    ///
    /// # Panics
    ///
    /// Panics if no flush is in progress.
    pub fn end_flush(&mut self, now: SimTime) -> Vec<StartedBurst> {
        let flush = self
            .active_flush
            .take()
            .expect("end_flush without begin_flush");
        self.page_cache
            .as_mut()
            .expect("flush on a machine without a page cache")
            .complete_flush(flush.bytes);
        self.cpu.unfreeze(now)
    }

    /// Fraction of `[window_start, now]` during which the CPU was busy,
    /// where `prev_busy` is [`CpuModel::busy_core_micros`] sampled at
    /// `window_start`. Convenience for utilization plots.
    pub fn utilization_since(&self, prev_busy: u64, window: SimDuration, now: SimTime) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        let delta = self.cpu.busy_core_micros(now).saturating_sub(prev_busy);
        delta as f64 / (window.as_micros() as f64 * self.cpu.cores() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::JobId;

    fn small_machine() -> Machine {
        Machine::new(MachineConfig {
            cores: 2,
            disk_write_bandwidth: 1_000_000, // 1 MB/s so durations are readable
            page_cache: Some(PageCacheConfig {
                dirty_background_bytes: 1_000,
                dirty_hard_limit_bytes: 10_000,
                flush_interval: SimDuration::from_secs(1),
            }),
            gc: None,
        })
    }

    #[test]
    fn log_writes_accumulate_and_interval_flush_triggers() {
        let mut m = small_machine();
        assert_eq!(m.log_write(500), None);
        assert_eq!(m.pdflush_wake(), None);
        m.log_write(600);
        assert_eq!(m.pdflush_wake(), Some(FlushTrigger::Interval));
    }

    #[test]
    fn hard_limit_triggers_immediately() {
        let mut m = small_machine();
        assert_eq!(m.log_write(10_000), Some(FlushTrigger::HardLimit));
    }

    #[test]
    fn flush_freezes_cpu_and_drops_dirty_pages() {
        let mut m = small_machine();
        m.log_write(2_000);
        let t0 = SimTime::from_secs(1);
        let flush = m.begin_flush(t0, FlushTrigger::Interval);
        assert_eq!(flush.bytes, 2_000);
        assert_eq!(flush.duration, SimDuration::from_millis(2));
        assert!(m.cpu.is_frozen());
        assert!(m.is_flushing());
        assert_eq!(m.millibottleneck_count(), 1);
        let restarted = m.end_flush(t0 + flush.duration);
        assert!(restarted.is_empty());
        assert!(!m.cpu.is_frozen());
        assert_eq!(m.dirty_bytes(), 0);
    }

    #[test]
    fn flush_pauses_inflight_bursts() {
        let mut m = small_machine();
        let t0 = SimTime::ZERO;
        let started = m
            .cpu
            .submit(t0, JobId(7), SimDuration::from_millis(10))
            .unwrap();
        m.log_write(5_000);
        let t1 = SimTime::from_millis(4);
        let flush = m.begin_flush(t1, FlushTrigger::Interval);
        // Original completion is now stale.
        assert_eq!(
            m.cpu.on_completion(started.key.at, started.key),
            crate::cpu::CompletionOutcome::Stale
        );
        let t2 = t1 + flush.duration;
        let restarted = m.end_flush(t2);
        assert_eq!(restarted.len(), 1);
        assert_eq!(restarted[0].job, JobId(7));
        assert_eq!(restarted[0].key.at, t2 + SimDuration::from_millis(6));
    }

    #[test]
    fn machine_without_page_cache_never_bottlenecks() {
        let mut m = Machine::new(MachineConfig {
            cores: 1,
            disk_write_bandwidth: 1_000,
            page_cache: None,
            gc: None,
        });
        assert_eq!(m.log_write(1 << 30), None);
        assert_eq!(m.pdflush_wake(), None);
        assert_eq!(m.dirty_bytes(), 0);
        assert_eq!(m.flush_interval(), None);
    }

    #[test]
    fn no_millibottleneck_config_never_wants_flush() {
        let mut m = Machine::new(MachineConfig::d710_no_millibottleneck());
        for _ in 0..100_000 {
            assert_eq!(m.log_write(10_000), None);
        }
        assert_eq!(m.pdflush_wake(), None);
    }

    #[test]
    fn flush_duration_matches_testbed_scale() {
        // The paper's millibottlenecks last tens to hundreds of ms:
        // ~19 MB of logs at ~100 MB/s ≈ 190 ms.
        let mut m = Machine::new(MachineConfig::d710());
        for _ in 0..12_500 {
            m.log_write(1_500); // ≈18.75 MB
        }
        let flush = m.begin_flush(SimTime::from_secs(5), FlushTrigger::Interval);
        let ms = flush.duration.as_millis_f64();
        assert!(
            (50.0..500.0).contains(&ms),
            "expected a millibottleneck-scale flush, got {ms} ms"
        );
        m.end_flush(SimTime::from_secs(5) + flush.duration);
    }

    #[test]
    fn utilization_since_computes_fraction() {
        let mut m = small_machine();
        let t0 = SimTime::ZERO;
        let prev = m.cpu.busy_core_micros(t0);
        m.cpu.submit(t0, JobId(1), SimDuration::from_millis(10));
        // One of two cores busy for the whole window → 50%.
        let u = m.utilization_since(prev, SimDuration::from_millis(10), SimTime::from_millis(10));
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "already in progress")]
    fn double_flush_panics() {
        let mut m = small_machine();
        m.log_write(2_000);
        m.begin_flush(SimTime::ZERO, FlushTrigger::Interval);
        m.begin_flush(SimTime::from_millis(1), FlushTrigger::Interval);
    }

    #[test]
    #[should_panic(expected = "without begin_flush")]
    fn end_without_begin_panics() {
        let mut m = small_machine();
        m.end_flush(SimTime::ZERO);
    }
}
