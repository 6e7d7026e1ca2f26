//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [OPTIONS] [ARTIFACTS...]
//!
//! ARTIFACTS   fig1 .. fig13, table1, or `all` (default: all)
//!
//! OPTIONS
//!   --secs N   simulated seconds per experiment (default: 180, the
//!              paper's experiment duration; 30–60 is enough for shape)
//!   --out DIR  directory for CSV output (default: results/)
//!   --trace    add the `trace` artifact: re-run the unstable
//!              total_request configuration with per-request tracing on
//!              and dump reconstructed VLRT causal chains + attribution
//!   --prof     profile the shared experiment runs behind fig1..fig13
//!              and table1: print each run's kernel profile (`prof.*`)
//!              and write it to DIR/prof_<run>.jsonl. The other
//!              artifacts run their own sweeps, unprofiled
//!   --help     this text
//! ```
//!
//! Each artifact prints ASCII charts plus a "shape check vs paper"
//! section, and writes its raw series as CSV under `--out`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mlb_bench::{
    all_ablations, all_artifacts, all_extensions, build, build_ablation, build_extension,
    build_robustness, build_tournament, build_trace, required_runs, RunCache, RunKey,
    TournamentConfig,
};

struct Args {
    secs: u64,
    out: PathBuf,
    prof: bool,
    artifacts: Vec<String>,
}

// (The master seed of the shared runs is fixed inside the presets; a
// --seed flag would silently desynchronize the recorded EXPERIMENTS.md
// numbers, so seed sweeps go through the dedicated `robustness` artifact.)

fn parse_args() -> Result<Args, String> {
    let mut secs = 180u64;
    let mut out = PathBuf::from("results");
    let mut prof = false;
    let mut artifacts = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--secs" => {
                let v = it.next().ok_or("--secs needs a value")?;
                secs = v.parse().map_err(|_| format!("bad --secs value: {v}"))?;
                if secs == 0 {
                    return Err("--secs must be positive".into());
                }
            }
            "--out" => {
                out = PathBuf::from(it.next().ok_or("--out needs a value")?);
            }
            "--trace" => artifacts.push("trace".to_string()),
            "--prof" => prof = true,
            "--help" | "-h" => {
                println!(
                    "usage: repro [--secs N] [--out DIR] [--trace] [--prof] \
                     [fig1..fig13|table1|ablation-*|ext-*|all|ablations|extensions|trace|tournament ...]\n\
                     --prof: print the kernel profile of each shared fig/table run and \
                     write it to DIR/prof_<run>.jsonl\n\
                     tournament: policy × scenario scorecard, writes BENCH_policies.json \
                     (MLB_TOURNAMENT=smoke for the CI-sized roster sweep, written to target/)"
                );
                std::process::exit(0);
            }
            "all" => artifacts.extend(all_artifacts().iter().map(|s| s.to_string())),
            "ablations" => artifacts.extend(all_ablations().iter().map(|s| s.to_string())),
            "extensions" => artifacts.extend(all_extensions().iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                return Err(format!("unknown option: {other}"));
            }
            other => artifacts.push(other.to_string()),
        }
    }
    if artifacts.is_empty() {
        artifacts.extend(all_artifacts().iter().map(|s| s.to_string()));
    }
    artifacts.dedup();
    for a in &artifacts {
        if !all_artifacts().contains(&a.as_str())
            && !all_ablations().contains(&a.as_str())
            && !all_extensions().contains(&a.as_str())
            && a != "robustness"
            && a != "trace"
            && a != "tournament"
        {
            return Err(format!(
                "unknown artifact: {a} (expected fig1..fig13, table1, ablation-*, ext-*, \
                 trace, tournament, all, ablations, or extensions)"
            ));
        }
    }
    Ok(Args {
        secs,
        out,
        prof,
        artifacts,
    })
}

/// Prints each shared run's kernel profile and writes it as
/// `prof_<run>.jsonl` under `out`.
fn write_profiles(cache: &RunCache, runs: &[RunKey], out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    for &key in runs {
        let report = cache
            .get(key)
            .profile
            .as_ref()
            .expect("--prof runs record a profile");
        println!("{}", "=".repeat(100));
        println!("PROF — {}", key.slug());
        println!("{}", "=".repeat(100));
        println!("{}", report.render());
        let path = out.join(format!("prof_{}.jsonl", key.slug()));
        std::fs::write(&path, report.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("[jsonl] {}\n", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let paper_artifacts: Vec<String> = args
        .artifacts
        .iter()
        .filter(|a| all_artifacts().contains(&a.as_str()))
        .cloned()
        .collect();
    let mut needed: Vec<RunKey> = paper_artifacts
        .iter()
        .flat_map(|a| required_runs(a))
        .collect();
    needed.sort();
    needed.dedup();

    eprintln!(
        "repro: {} artifact(s), {} shared experiment run(s) at {}s simulated each",
        args.artifacts.len(),
        needed.len(),
        args.secs
    );
    let started = std::time::Instant::now();
    let cache = if needed.is_empty() {
        RunCache::default()
    } else {
        RunCache::execute(&needed, args.secs, args.prof)
    };
    if !needed.is_empty() {
        eprintln!(
            "repro: shared experiments finished in {:.1}s wall\n",
            started.elapsed().as_secs_f64()
        );
    }
    if args.prof && needed.is_empty() {
        eprintln!("repro: --prof profiles the shared fig1..fig13/table1 runs; none requested");
    }
    if args.prof {
        if let Err(e) = write_profiles(&cache, &needed, &args.out) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    for id in &args.artifacts {
        let fig = if all_ablations().contains(&id.as_str()) {
            eprintln!("running ablation sweep {id} ({}s per point)...", args.secs);
            build_ablation(id, args.secs)
        } else if all_extensions().contains(&id.as_str()) {
            eprintln!(
                "running extension experiment {id} ({}s per configuration)...",
                args.secs
            );
            build_extension(id, args.secs)
        } else if id == "robustness" {
            eprintln!("running seed-robustness sweep ({}s per run)...", args.secs);
            build_robustness(args.secs)
        } else if id == "trace" {
            eprintln!(
                "running traced total_request experiment ({}s)...",
                args.secs
            );
            build_trace(args.secs)
        } else if id == "tournament" {
            let smoke = std::env::var("MLB_TOURNAMENT").as_deref() == Ok("smoke");
            let cfg = if smoke {
                TournamentConfig::smoke()
            } else {
                TournamentConfig::full()
            };
            eprintln!(
                "running policy tournament ({}s per run, seeds {:?})...",
                cfg.secs, cfg.seeds
            );
            build_tournament(&cfg, smoke)
        } else {
            build(id, &cache)
        };
        println!("{}", "=".repeat(100));
        println!("{} — {}", fig.id.to_uppercase(), fig.title);
        println!("{}", "=".repeat(100));
        println!("{}", fig.text);
        for (stem, csv) in &fig.csvs {
            let path = args.out.join(format!("{stem}.csv"));
            match csv.write_to(&path) {
                Ok(()) => println!("[csv] {}", path.display()),
                Err(e) => {
                    eprintln!("error writing {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}
