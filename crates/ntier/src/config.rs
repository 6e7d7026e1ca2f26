//! Full-system configuration and the paper's scenario presets.

use mlb_core::BalancerConfig;
use mlb_netmodel::link::Link;
use mlb_netmodel::retransmit::RtoSchedule;
use mlb_osmodel::machine::{GcConfig, MachineConfig};
use mlb_osmodel::pagecache::PageCacheConfig;
use mlb_simkernel::queue::QueueKind;
use mlb_simkernel::time::SimDuration;
use mlb_workload::clients::ClientPopulation;
use mlb_workload::mix::InteractionMix;

use crate::metrics::MetricsConfig;
use crate::trace::TraceConfig;

/// Complete description of one n-tier experiment.
///
/// Defaults ([`SystemConfig::paper_4x4`]) reproduce the paper's testbed:
/// 4 Apache (MaxClients 200), 4 Tomcat (maxThreads 210), 1 MySQL, 70 000
/// closed-loop clients, millibottlenecks from dirty-page flushing on the
/// Tomcat tier only (the paper eliminated Apache-tier flushing in the
/// 4/4/1 experiments by enlarging its dirty buffer).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of Apache (web) servers.
    pub apaches: usize,
    /// Number of Tomcat (application) servers.
    pub tomcats: usize,
    /// Load-balancer policy/mechanism configuration (one balancer per
    /// Apache).
    pub balancer: BalancerConfig,
    /// Apache worker threads per server (`MaxClients`).
    pub apache_workers: usize,
    /// Apache kernel accept-queue capacity; overflow drops packets.
    pub apache_accept_queue: usize,
    /// Tomcat worker threads per server (`maxThreads`).
    pub tomcat_threads: usize,
    /// AJP connections per Apache→Tomcat pair
    /// (`WorkerConnectionPoolSize` × processes).
    pub pool_size: usize,
    /// MySQL connections per Tomcat (48 total / 4 Tomcats in the paper).
    pub db_pool_per_tomcat: usize,
    /// Hardware/OS model of each Apache node.
    pub apache_machine: MachineConfig,
    /// Hardware/OS model of each Tomcat node.
    pub tomcat_machine: MachineConfig,
    /// Optional per-Tomcat overrides for heterogeneous clusters; when set,
    /// must have exactly `tomcats` entries and `tomcat_machine` is ignored.
    pub tomcat_machines: Option<Vec<MachineConfig>>,
    /// Hardware/OS model of the MySQL node.
    pub mysql_machine: MachineConfig,
    /// LAN latency model.
    pub link: Link,
    /// TCP retransmission schedule applied to accept-queue drops.
    pub rto: RtoSchedule,
    /// Closed-loop client population.
    pub population: ClientPopulation,
    /// Interaction mix.
    pub mix: InteractionMix,
    /// Experiment duration (clients stop issuing at this horizon).
    pub duration: SimDuration,
    /// Telemetry sampling window (the paper uses 50 ms).
    pub sample_interval: SimDuration,
    /// Master seed for all random streams.
    pub seed: u64,
    /// Bytes of Apache access log written per request (dirties Apache's
    /// page cache when it has one).
    pub apache_log_bytes: u64,
    /// Budget after which a request that cannot be routed (all candidates
    /// Busy/Error) fails with an error.
    pub routing_budget: SimDuration,
    /// Per-request event tracing (off by default; purely observational —
    /// enabling it never changes the simulation's outcome).
    pub trace: TraceConfig,
    /// Streaming telemetry registry + online millibottleneck detector
    /// (off by default; purely observational, like tracing).
    pub metrics: MetricsConfig,
    /// Closes the loop: at each monitor tick, feed freshly closed
    /// detector flags back into every Apache balancer as per-Tomcat
    /// stall signals, which the `detector_driven` policy consults as an
    /// eligibility veto. Off by default (the metrics subsystem stays
    /// purely observational); requires `metrics.enabled`.
    pub detector_feedback: bool,
    /// Event-queue backend. The timer wheel (default) and the
    /// `BinaryHeap` reference produce bit-identical runs; the heap is
    /// kept as the baseline the scale-sweep bench measures against.
    pub queue: QueueKind,
    /// Kernel self-profiling (`simprof`): per-event-kind and per-phase
    /// wall-time counters plus wheel/arena statistics, exported as
    /// `prof.*` metrics. Off by default; purely observational — a
    /// profiled run is byte-identical to an unprofiled one.
    pub prof: bool,
}

impl SystemConfig {
    /// The paper's 4 Apache / 4 Tomcat / 1 MySQL testbed with
    /// millibottlenecks on the Tomcat tier, under the given balancer
    /// configuration.
    pub fn paper_4x4(balancer: BalancerConfig) -> Self {
        SystemConfig {
            apaches: 4,
            tomcats: 4,
            balancer,
            apache_workers: 200,
            apache_accept_queue: 256,
            tomcat_threads: 210,
            pool_size: 50,
            db_pool_per_tomcat: 12,
            // Apache-tier flushing eliminated (4.8 GB buffer / 600 s).
            apache_machine: MachineConfig::d710_no_millibottleneck(),
            tomcat_machine: MachineConfig::d710(),
            tomcat_machines: None,
            mysql_machine: MachineConfig {
                page_cache: None,
                ..MachineConfig::d710()
            },
            link: Link::lan_1gbps(),
            rto: RtoSchedule::paper_clusters(),
            population: ClientPopulation::paper_default(),
            mix: InteractionMix::read_write(),
            duration: SimDuration::from_secs(180),
            sample_interval: SimDuration::from_millis(50),
            seed: 0x1CDC_2017,
            apache_log_bytes: 500,
            routing_budget: SimDuration::from_secs(2),
            trace: TraceConfig::disabled(),
            metrics: MetricsConfig::disabled(),
            detector_feedback: false,
            queue: QueueKind::Wheel,
            prof: false,
        }
    }

    /// The same testbed with *all* millibottlenecks eliminated (the
    /// baseline of Section II-B / Fig. 1).
    pub fn paper_4x4_no_millibottleneck(balancer: BalancerConfig) -> Self {
        SystemConfig {
            tomcat_machine: MachineConfig::d710_no_millibottleneck(),
            ..SystemConfig::paper_4x4(balancer)
        }
    }

    /// The 4/4/1 testbed with millibottlenecks caused by stop-the-world
    /// JVM garbage collection on the Tomcats instead of dirty-page
    /// flushing — one of the alternative millibottleneck causes the
    /// paper's introduction lists. Dirty-page flushing is eliminated so
    /// GC is the only freeze source.
    pub fn paper_4x4_gc(balancer: BalancerConfig) -> Self {
        SystemConfig {
            tomcat_machine: MachineConfig::d710_gc(GcConfig {
                period: SimDuration::from_secs(10),
                pause: SimDuration::from_millis(250),
            }),
            ..SystemConfig::paper_4x4(balancer)
        }
    }

    /// The 1 Apache / 1 Tomcat / 1 MySQL configuration of Section III-B
    /// (Fig. 2): no balancing choice, millibottlenecks on *both* Apache
    /// and Tomcat tiers.
    pub fn paper_1x1(balancer: BalancerConfig) -> Self {
        SystemConfig {
            apaches: 1,
            tomcats: 1,
            apache_machine: MachineConfig::d710(),
            population: ClientPopulation::new(17_500, SimDuration::from_secs(7), 1),
            ..SystemConfig::paper_4x4(balancer)
        }
    }

    /// A scaled-down configuration for fast tests: 2/2/1, 3 000 clients,
    /// aggressive flush cadence so millibottlenecks appear within seconds.
    pub fn smoke(balancer: BalancerConfig) -> Self {
        SystemConfig {
            apaches: 2,
            tomcats: 2,
            apache_workers: 60,
            apache_accept_queue: 64,
            tomcat_threads: 80,
            pool_size: 20,
            db_pool_per_tomcat: 8,
            tomcat_machine: MachineConfig {
                cores: 2,
                // A slow disk keeps the scaled-down flushes at
                // millibottleneck scale (~200 ms) despite the small load.
                disk_write_bandwidth: 10 * 1024 * 1024,
                page_cache: Some(PageCacheConfig {
                    dirty_background_bytes: 2 * 1024 * 1024,
                    dirty_hard_limit_bytes: 64 * 1024 * 1024,
                    flush_interval: SimDuration::from_secs(2),
                }),
                gc: None,
            },
            apache_machine: MachineConfig {
                cores: 2,
                disk_write_bandwidth: 100 * 1024 * 1024,
                page_cache: Some(PageCacheConfig::effectively_disabled()),
                gc: None,
            },
            mysql_machine: MachineConfig {
                cores: 2,
                disk_write_bandwidth: 100 * 1024 * 1024,
                page_cache: None,
                gc: None,
            },
            population: ClientPopulation::new(3_000, SimDuration::from_secs(2), 2),
            duration: SimDuration::from_secs(10),
            ..SystemConfig::paper_4x4(balancer)
        }
    }

    /// This system with every tier multiplied by `k`: Apaches, Tomcats,
    /// MySQL cores (the testbed has one database node) and clients, the
    /// clients spread over the scaled Apache count. Pools are sized per
    /// Apache–Tomcat pair and per Tomcat, so the AJP and database
    /// connection counts scale with the tiers they join, and the
    /// per-server load stays at this config's operating point.
    ///
    /// Per-Tomcat lists (`tomcat_machines`, `balancer.weights`) are not
    /// tiled, so a config that sets them fails [`SystemConfig::validate`]
    /// once scaled.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn scaled(mut self, k: usize) -> Self {
        assert!(k > 0, "scale factor must be positive");
        self.apaches *= k;
        self.tomcats *= k;
        self.mysql_machine.cores *= k;
        let population = ClientPopulation::new(
            self.population.clients() * k,
            self.population.think_time_mean(),
            self.apaches,
        );
        self.population = match self.population.burst() {
            Some(burst) => population.with_bursts(burst),
            None => population,
        };
        self
    }

    /// The machine configuration of Tomcat `i` (the per-Tomcat override if
    /// present, the shared config otherwise).
    pub fn tomcat_machine_of(&self, i: usize) -> &MachineConfig {
        self.tomcat_machines
            .as_ref()
            .map_or(&self.tomcat_machine, |m| &m[i])
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.apaches == 0 || self.tomcats == 0 {
            return Err("need at least one Apache and one Tomcat".into());
        }
        if self.apache_workers == 0 || self.tomcat_threads == 0 {
            return Err("worker/thread pools must be positive".into());
        }
        if self.apache_accept_queue == 0 {
            return Err("apache_accept_queue must be positive".into());
        }
        if self.pool_size == 0 || self.db_pool_per_tomcat == 0 {
            return Err("connection pools must be positive".into());
        }
        if self.population.front_ends() != self.apaches {
            return Err(format!(
                "population is partitioned over {} front ends but there are {} Apaches",
                self.population.front_ends(),
                self.apaches
            ));
        }
        if self.duration.is_zero() {
            return Err("duration must be positive".into());
        }
        if self.sample_interval.is_zero() {
            return Err("sample_interval must be positive".into());
        }
        if let Some(machines) = &self.tomcat_machines {
            if machines.len() != self.tomcats {
                return Err(format!(
                    "{} per-Tomcat machine configs for {} Tomcats",
                    machines.len(),
                    self.tomcats
                ));
            }
        }
        let machine =
            |name: &str, m: &MachineConfig| m.validate().map_err(|e| format!("{name}.{e}"));
        machine("apache_machine", &self.apache_machine)?;
        machine("mysql_machine", &self.mysql_machine)?;
        match &self.tomcat_machines {
            Some(machines) => {
                for (i, m) in machines.iter().enumerate() {
                    machine(&format!("tomcat_machines[{i}]"), m)?;
                }
            }
            None => machine("tomcat_machine", &self.tomcat_machine)?,
        }
        if self.trace.enabled && self.trace.vlrt_capacity == 0 && self.trace.recent_capacity == 0 {
            return Err(
                "tracing is enabled but retains nothing; raise recent_capacity \
                 or vlrt_capacity, or disable tracing"
                    .into(),
            );
        }
        if self.trace.sample_every == 0 {
            return Err("trace.sample_every must be >= 1 (1 = trace everything)".into());
        }
        if self.detector_feedback && !self.metrics.enabled {
            return Err(
                "detector_feedback needs the online detector: enable metrics \
                 (e.g. MetricsConfig::enabled_default())"
                    .into(),
            );
        }
        if let Some(w) = &self.balancer.weights {
            if w.len() != self.tomcats {
                return Err(format!(
                    "{} balancer weights for {} Tomcats",
                    w.len(),
                    self.tomcats
                ));
            }
        }
        self.balancer.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlb_core::{MechanismKind, PolicyKind};

    fn bal() -> BalancerConfig {
        BalancerConfig::with(PolicyKind::TotalRequest, MechanismKind::Original)
    }

    #[test]
    fn presets_validate() {
        assert!(SystemConfig::paper_4x4(bal()).validate().is_ok());
        assert!(SystemConfig::paper_4x4_no_millibottleneck(bal())
            .validate()
            .is_ok());
        assert!(SystemConfig::paper_1x1(bal()).validate().is_ok());
        assert!(SystemConfig::smoke(bal()).validate().is_ok());
    }

    #[test]
    fn paper_4x4_matches_appendix() {
        let c = SystemConfig::paper_4x4(bal());
        assert_eq!(c.apaches, 4);
        assert_eq!(c.tomcats, 4);
        assert_eq!(c.apache_workers, 200);
        assert_eq!(c.tomcat_threads, 210);
        assert_eq!(c.population.clients(), 70_000);
        // Tomcats can millibottleneck, Apaches cannot.
        assert!(c.tomcat_machine.page_cache.is_some());
        let apc = c.apache_machine.page_cache.unwrap();
        assert_eq!(apc.dirty_background_bytes, u64::MAX);
    }

    #[test]
    fn no_millibottleneck_disables_tomcat_flushing() {
        let c = SystemConfig::paper_4x4_no_millibottleneck(bal());
        let pc = c.tomcat_machine.page_cache.unwrap();
        assert_eq!(pc.dirty_background_bytes, u64::MAX);
    }

    #[test]
    fn one_by_one_enables_apache_flushing() {
        let c = SystemConfig::paper_1x1(bal());
        assert_eq!(c.apaches, 1);
        let pc = c.apache_machine.page_cache.unwrap();
        assert!(pc.dirty_background_bytes < u64::MAX);
    }

    #[test]
    fn gc_preset_replaces_flushing_with_collections() {
        let c = SystemConfig::paper_4x4_gc(bal());
        let pc = c.tomcat_machine.page_cache.unwrap();
        assert_eq!(pc.dirty_background_bytes, u64::MAX, "flushing must be off");
        let gc = c.tomcat_machine.gc.unwrap();
        assert_eq!(gc.pause, SimDuration::from_millis(250));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scaled_multiplies_every_tier() {
        let base = SystemConfig::paper_4x4(bal());
        assert_eq!(
            format!("{:?}", base.clone().scaled(1)),
            format!("{base:?}"),
            "scaled(1) is the identity"
        );
        for k in [4usize, 16, 64] {
            let c = base.clone().scaled(k);
            c.validate().expect("a scaled preset must validate");
            assert_eq!(c.apaches, base.apaches * k);
            assert_eq!(c.tomcats, base.tomcats * k);
            assert_eq!(c.mysql_machine.cores, base.mysql_machine.cores * k);
            assert_eq!(c.population.clients(), base.population.clients() * k);
            assert_eq!(c.population.front_ends(), c.apaches);
        }
    }

    #[test]
    fn validation_rejects_population_mismatch() {
        let mut c = SystemConfig::paper_4x4(bal());
        c.apaches = 2;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_duration() {
        let mut c = SystemConfig::smoke(bal());
        c.duration = SimDuration::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_sample_every() {
        let mut c = SystemConfig::smoke(bal());
        c.trace.sample_every = 0;
        assert!(c.validate().is_err());
    }

    /// `NTierSystem::new` must reject `c` with an error naming `field`.
    fn rejected_naming(c: SystemConfig, field: &str) {
        let err = crate::system::NTierSystem::new(c)
            .expect_err("config must be rejected")
            .to_string();
        assert!(err.contains(field), "{err:?} does not name {field}");
    }

    #[test]
    fn zero_accept_queue_is_rejected_not_a_panic() {
        let mut c = SystemConfig::smoke(bal());
        c.apache_accept_queue = 0;
        rejected_naming(c, "apache_accept_queue");
    }

    #[test]
    fn zero_tomcat_cores_are_rejected_not_a_panic() {
        let mut c = SystemConfig::smoke(bal());
        c.tomcat_machine.cores = 0;
        rejected_naming(c, "tomcat_machine.cores");
        let mut c = SystemConfig::smoke(bal());
        let mut machines = vec![c.tomcat_machine.clone(); c.tomcats];
        machines[1].cores = 0;
        c.tomcat_machines = Some(machines);
        rejected_naming(c, "tomcat_machines[1].cores");
    }

    #[test]
    fn zero_mysql_disk_bandwidth_is_rejected_not_a_panic() {
        let mut c = SystemConfig::smoke(bal());
        c.mysql_machine.disk_write_bandwidth = 0;
        rejected_naming(c, "mysql_machine.disk_write_bandwidth");
    }

    #[test]
    fn detector_feedback_requires_metrics() {
        let mut c = SystemConfig::smoke(bal());
        c.detector_feedback = true;
        assert!(c.validate().is_err(), "feedback without a detector");
        c.metrics = MetricsConfig::enabled_default();
        assert!(c.validate().is_ok());
    }
}
