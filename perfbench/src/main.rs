//! `mlb-perfbench` — the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! mlb-perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload builds one simulation through
//! `NTierSystem::build_simulation`, steps it with `run_until` in 50 sim-ms
//! slices, and reads its counters after `into_model`, single-threaded and
//! one run at a time. An untraced run (`--trace 0`) repeats the workload
//! for `--seconds` host seconds and reports the end-to-end metrics; a
//! traced run (`--trace 1`) adds runs with `SystemConfig::prof` on and
//! with the observers toggled, and reports the per-layer metrics. Every
//! run is checked; the last stdout line is the JSON result. See
//! `README.md` for the workloads and every metric's definition.

mod episode;
mod layers;
mod report;
mod stats;
mod workload;

use std::process::{Command, ExitCode};
use std::time::Instant;

use mlb_ntier::SystemConfig;

use episode::{Episode, Outcome};
use layers::{ProfileSum, TracedRun};
use report::{result_json, Metric, END_TO_END};
use stats::{median, percentile};
use workload::{with_observers, Workload};

const USAGE: &str =
    "usage: mlb-perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]";

/// Builds timed before the measured runs, so `setup_s` is a median of
/// many even when only a few runs fit in the time.
const SETUP_BUILDS: usize = 9;

/// Fewest runs of each input in an untraced measurement: every repeat
/// must reproduce the first run's simulated outcome.
const MIN_RUNS: usize = 2;

/// Table I of the paper, `total_request` on the 4/4/1 testbed.
const TABLE_I_VLRT_PCT: f64 = 5.33;
const TABLE_I_MEAN_RT_MS: f64 = 41.0;

#[derive(Debug)]
struct Args {
    /// `None` runs every workload, each in its own process.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return run_all(&args);
    };
    let (tally, metrics) = if args.trace {
        traced(w, args.seed, args.seconds)
    } else {
        untraced(w, args.seed, args.seconds)
    };
    println!("{}", result_json(tally.attempted, tally.failed, &metrics));
    ExitCode::SUCCESS
}

/// Checked operations: every simulation run, and every cross-run check.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one operation, failed when it has any problem.
    fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
        }
        for p in problems {
            println!("CHECK FAILED {what}: {p}");
        }
    }

    /// Counts a metric that could not be measured as a failed operation.
    fn finite(&mut self, metrics: &[Metric]) {
        for m in metrics.iter().filter(|m| !m.value.is_finite()) {
            self.record(&m.name, &[format!("value is {}", m.value)]);
        }
    }
}

/// Checks one run: conservation, storm-freedom where required, and that
/// it simulated exactly what `reference` did.
fn check(tally: &mut Tally, what: &str, w: Workload, e: &Episode, reference: Option<&Outcome>) {
    let mut problems = episode::violations(e, w.storm_free());
    if let Some(r) = reference.filter(|r| **r != e.outcome) {
        problems.push(format!(
            "simulated outcome differs\n  expected {}\n  got      {}",
            r.render(),
            e.outcome.render()
        ));
    }
    tally.record(what, &problems);
}

/// The end-to-end measurement: runs the workload's inputs round-robin
/// for `seconds` host seconds, each input at least [`MIN_RUNS`] times.
fn untraced(w: Workload, seed: u64, seconds: f64) -> (Tally, Vec<Metric>) {
    let seeds = w.input_seeds(seed);
    let cfgs: Vec<SystemConfig> = seeds.iter().map(|&s| w.config(s)).collect();
    let mut setups: Vec<f64> = (0..SETUP_BUILDS)
        .map(|i| episode::build(cfgs[i % cfgs.len()].clone()).1)
        .collect();
    let mut tally = Tally::default();
    let mut runs: Vec<Episode> = Vec::new();
    let start = Instant::now();
    while runs.len() < MIN_RUNS * cfgs.len() || start.elapsed().as_secs_f64() < seconds {
        let i = runs.len() % cfgs.len();
        let e = episode::run(cfgs[i].clone());
        let what = format!("{} seed={} run {}", w.name(), seeds[i], runs.len() + 1);
        // Round-robin: the first run of input i is runs[i].
        check(&mut tally, &what, w, &e, runs.get(i).map(|f| &f.outcome));
        setups.push(e.setup_s);
        runs.push(e);
    }
    let firsts = &runs[..cfgs.len()];
    for (s, first) in seeds.iter().zip(firsts) {
        println!("{} seed={s} {}", w.name(), first.outcome.render());
    }
    if let Some(base) = w.same_outcome_as() {
        for (&s, first) in seeds.iter().zip(firsts) {
            let e = episode::run(base.config(s));
            let what = format!("{} seed={s} reproduces {}", w.name(), base.name());
            check(&mut tally, &what, base, &e, Some(&first.outcome));
        }
    }
    if w == Workload::Paper4x4 {
        let mean = |f: fn(&Episode) -> f64| firsts.iter().map(f).sum::<f64>() / firsts.len() as f64;
        println!(
            "model error vs Table I (sim time, reported, not gated; mean of {} seeds x {:.0} sim-s): \
             model.vlrt_pct={:.2} % (paper {TABLE_I_VLRT_PCT} %), \
             model.mean_rt_ms={:.1} ms (paper {TABLE_I_MEAN_RT_MS} ms)",
            firsts.len(),
            firsts[0].sim_s,
            mean(|e| e.vlrt_pct),
            mean(|e| e.mean_rt_ms),
        );
    }

    // An unmeasurable metric reads NaN, which `Tally::finite` counts.
    let measured = |r: Result<f64, String>| {
        r.unwrap_or_else(|err| {
            println!("CHECK FAILED {}: {err}", w.name());
            f64::NAN
        })
    };
    // Slice percentiles are taken per run, then their median across runs,
    // so one run that shares the host with a burst of other work does not
    // move the tail.
    let slice_pct = |pct| {
        let per_run: Result<Vec<f64>, String> =
            runs.iter().map(|e| percentile(&e.slice_ms, pct)).collect();
        measured(per_run.map(|v| median(&v)))
    };
    let (p50, p95) = (slice_pct(50), slice_pct(95));
    let rss = measured(peak_rss_mb());
    let per_run = |f: fn(&Episode) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let values = [
        per_run(|e| e.outcome.completed as f64 / e.run_wall_s),
        per_run(|e| e.run_wall_s / e.sim_s),
        p50,
        p95,
        median(&setups),
        rss,
    ];
    let notes = [
        format!(
            "simulated requests completed per host second, median of {} runs of {} seeds at {} clients",
            runs.len(),
            seeds.len(),
            cfgs[0].population.clients()
        ),
        format!("host seconds per simulated second, median of {} runs", runs.len()),
        format!(
            "host ms per 50 sim-ms slice, median over runs of each run's p50 of {} slices",
            runs[0].slice_ms.len()
        ),
        format!(
            "host ms per 50 sim-ms slice, median over runs of each run's p95 of {} slices",
            runs[0].slice_ms.len()
        ),
        format!("host seconds in build_simulation, median of {} builds", setups.len()),
        "process peak resident set (VmHWM), host memory".to_owned(),
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, unit, v))
        .collect();
    for (m, note) in metrics.iter().zip(&notes) {
        println!(
            "{:<20} {:<19} {:>16.6} {:<4} {note}",
            w.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    tally.finite(&metrics);
    (tally, metrics)
}

/// The per-layer measurement: rounds of an untraced run, a profiled run
/// and a run with the observers toggled, for `seconds` host seconds (at
/// least one round). Profiling and observers must leave the simulated
/// outcome unchanged.
fn traced(w: Workload, seed: u64, seconds: f64) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let mut prof = ProfileSum::default();
    let (mut untraced, mut traced, mut observed, mut unobserved) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut traces_retained = 0;
    let mut last = None;
    let start = Instant::now();
    while last.is_none() || start.elapsed().as_secs_f64() < seconds {
        let plain = episode::run(w.config(seed));
        check(
            &mut tally,
            &format!("{} untraced", w.name()),
            w,
            &plain,
            None,
        );
        let reference = Some(&plain.outcome);
        let profiled = episode::run(SystemConfig {
            prof: true,
            ..w.config(seed)
        });
        let what = format!("{} profiled", w.name());
        check(&mut tally, &what, w, &profiled, reference);
        let toggled = episode::run(with_observers(w.config(seed), !w.observed()));
        let what = format!("{} observers toggled", w.name());
        check(&mut tally, &what, w, &toggled, reference);

        let (on, off) = if w.observed() {
            (&plain, &toggled)
        } else {
            (&toggled, &plain)
        };
        observed.push(on.run_wall_s);
        unobserved.push(off.run_wall_s);
        traces_retained = on.traces_retained;
        untraced.push(plain.run_wall_s);
        traced.push(profiled.run_wall_s);
        prof.add(profiled.profile.as_ref().expect("cfg.prof was set"));
        last = Some(profiled);
    }
    let run = last.expect("at least one round ran");
    println!("{} seed={seed} {}", w.name(), run.outcome.render());
    if !prof.layers_cover_handle() {
        let unmapped = prof.unmapped_kinds();
        tally.record(
            "layer shares",
            &[format!(
                "layer ns do not add up to the handle phase; unmapped kinds {unmapped:?}"
            )],
        );
    }
    let metrics = layers::per_layer(&TracedRun {
        prof: &prof,
        run: &run,
        untraced_wall_s: median(&untraced),
        traced_wall_s: median(&traced),
        observed_wall_s: median(&observed),
        unobserved_wall_s: median(&unobserved),
        traces_retained,
    });
    println!(
        "{}: {} rounds; ns are host time inside a profiled run, shares are of the handle phase",
        w.name(),
        untraced.len()
    );
    for m in &metrics {
        println!(
            "{:<20} {:<34} {:>16.4} {}",
            w.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    tally.finite(&metrics);
    (tally, metrics)
}

/// Runs every workload, each in a child process of its own so that each
/// `peak_rss_mb` covers one workload only, and prints their outputs. The
/// last line sums the children's tallies; the metrics are in the lines
/// above it.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut attempted, mut failed) = (0, 0);
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprint!("{}", String::from_utf8_lossy(&o.stderr));
                eprintln!("error: {} exited with {}", w.name(), o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: cannot run {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        attempted += json_u64(last, "attempted").unwrap_or(0);
        failed += json_u64(last, "failed").unwrap_or(1);
    }
    println!("{}", result_json(attempted, failed, &[]));
    ExitCode::SUCCESS
}

/// The whole number after `"key": ` in a result line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// Names of every per-layer metric, in report order: the metrics of an
/// empty run.
#[cfg(test)]
fn per_layer_names() -> Vec<String> {
    layers::per_layer(&TracedRun {
        prof: &ProfileSum::default(),
        run: &Episode::default(),
        untraced_wall_s: 0.0,
        traced_wall_s: 0.0,
        observed_wall_s: 0.0,
        unobserved_wall_s: 0.0,
        traces_retained: 0,
    })
    .into_iter()
    .map(|m| m.name)
    .collect()
}

/// The process's peak resident set in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names the benchmark declares in the repository's
    /// `BENCHMARK.json`, section by section.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closed name")].to_owned())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_code_reports() {
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared("workloads"), workloads);
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), per_layer_names());
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names = per_layer_names();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn args_parse_the_driver_form_and_refuse_junk() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload scaled_16x --seed 3 --seconds 20 --trace 1").expect("valid");
        assert_eq!(a.workload, Some(Workload::Scaled16x));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 20.0, true));
        assert!(parse("--workload all").expect("valid").workload.is_none());
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn all_mode_reads_the_tallies_of_a_result_line() {
        let line = result_json(
            4,
            0,
            &[
                Metric::new("setup_s", "s", 0.0123),
                Metric::new("sim_req_per_wall_s", "1/s", 812345.5),
            ],
        );
        assert_eq!(json_u64(&line, "attempted"), Some(4));
        assert_eq!(json_u64(&line, "failed"), Some(0));
        assert_eq!(json_u64(&line, "missing"), None);
    }
}
