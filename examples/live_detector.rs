//! Online millibottleneck detection with incremental telemetry export.
//!
//! Runs the unstable smoke configuration (`Original total_request`) with
//! the streaming telemetry registry and the online detector enabled,
//! advancing the simulation in one-second slices. After each slice the
//! registry's closed sub-50 ms windows are drained incrementally into a
//! JSONL sink — the "live" consumption pattern a detection-driven
//! balancer would use — and the detector's stall count so far is
//! printed. At the end the detector's window-aligned stall windows are
//! compared against the post-hoc trace-log attribution, and the full
//! JSONL export is written to `results/metrics_export.jsonl`.
//!
//! ```text
//! cargo run --release -p mlb-ntier --example live_detector -- [secs] [out.jsonl]
//! ```

use mlb_core::{BalancerConfig, MechanismKind, PolicyKind};
use mlb_metrics::registry::JsonlSink;
use mlb_ntier::config::SystemConfig;
use mlb_ntier::metrics::{MetricsConfig, REGISTRY_WINDOW};
use mlb_ntier::system::NTierSystem;
use mlb_ntier::trace::TraceConfig;
use mlb_simkernel::time::{SimDuration, SimTime};

fn main() {
    let mut args = std::env::args().skip(1);
    let secs: u64 = args
        .next()
        .map(|s| s.parse().expect("duration must be a number of seconds"))
        .unwrap_or(10);
    let out = args
        .next()
        .unwrap_or_else(|| "results/metrics_export.jsonl".to_owned());

    let mut cfg = SystemConfig::smoke(BalancerConfig::with(
        PolicyKind::TotalRequest,
        MechanismKind::Original,
    ));
    cfg.duration = SimDuration::from_secs(secs);
    cfg.metrics = MetricsConfig::enabled_default();
    cfg.trace = TraceConfig::enabled_default();

    println!(
        "running {secs}s of Original total_request with the {} ms registry \
         and the online detector...\n",
        REGISTRY_WINDOW.as_micros() / 1_000
    );

    let mut sim = NTierSystem::build_simulation(cfg).expect("preset config is valid");
    let mut sink = JsonlSink::new();
    for sec in 1..=secs {
        sim.run_until(SimTime::from_secs(sec));
        let system = sim.model_mut();
        let (stalls, flags) = system
            .detector()
            .map(|d| (d.stalls().len(), d.flags().len()))
            .unwrap_or((0, 0));
        if let Some(m) = system.live_metrics_mut() {
            m.registry_mut().drain_into(&mut sink);
        }
        println!(
            "t={sec:>3}s  drained {:>7} JSONL bytes so far; detector: \
             {stalls} stall(s), {flags} flag(s)",
            sink.as_str().len()
        );
    }

    let (_telemetry, trace, report) = sim.into_model().into_parts();
    let report = report.expect("metrics were enabled");
    // The end-of-run report drains whatever the incremental loop had not
    // yet consumed (the tail window); stitch the two for the full export.
    let mut jsonl = sink.into_string();
    jsonl.push_str(&report.jsonl);

    println!();
    println!(
        "online detector: {} stall window(s), {} flag(s)",
        report.stalls.len(),
        report.flags.len()
    );
    for s in &report.stalls {
        println!(
            "  [{:>7.3}s – {:>7.3}s] {:<8} {}",
            s.start.as_secs_f64(),
            s.end.as_secs_f64(),
            s.server,
            s.kind.label()
        );
    }

    if let Some(log) = trace {
        println!(
            "\npost-hoc trace log: {} stall window(s) recorded by the servers",
            log.stalls.len()
        );
        // Window-set agreement (the property the integration tests pin):
        // every post-hoc stall that overlaps observed windows must be
        // covered by an online stall window on the same server, and vice
        // versa.
        let window = report.window.as_micros();
        let last = report.last_window.unwrap_or(0);
        let windows_of = |stalls: &[mlb_metrics::spans::StallWindow], server: &str| {
            let mut ws: Vec<u64> = Vec::new();
            for s in stalls.iter().filter(|s| s.server == server) {
                for w in 0..=last {
                    let (from, to) = (
                        SimTime::from_micros(w * window),
                        SimTime::from_micros((w + 1) * window),
                    );
                    if !s.overlap(from, to).is_zero() {
                        ws.push(w);
                    }
                }
            }
            ws.sort_unstable();
            ws.dedup();
            ws
        };
        let mut servers: Vec<&str> = report
            .stalls
            .iter()
            .map(|s| s.server.as_str())
            .chain(log.stalls.iter().map(|s| s.server.as_str()))
            .collect();
        servers.sort_unstable();
        servers.dedup();
        let mut agree = true;
        for server in servers {
            let online = windows_of(&report.stalls, server);
            let posthoc = windows_of(&log.stalls, server);
            let ok = online == posthoc;
            agree &= ok;
            println!(
                "  {server:<8} online {:>3} window(s), post-hoc {:>3} window(s): {}",
                online.len(),
                posthoc.len(),
                if ok { "agree" } else { "MISMATCH" }
            );
        }
        println!(
            "\nwindow-set agreement: {}",
            if agree { "PASS" } else { "FAIL" }
        );
    }

    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).expect("creating output directory");
    }
    std::fs::write(&out, &jsonl).expect("writing JSONL export");
    println!(
        "\nwrote {} JSONL window records ({} bytes) to {out}",
        jsonl.lines().count(),
        jsonl.len()
    );
}
