#![forbid(unsafe_code)]
//! The `mlb-simlint` command-line front end.
//!
//! ```text
//! cargo run -p mlb-simlint -- --workspace                       # human diagnostics
//! cargo run -p mlb-simlint -- --workspace --json                # machine-readable (CI)
//! cargo run -p mlb-simlint -- --workspace --sarif out.sarif     # SARIF 2.1.0 artifact
//! cargo run -p mlb-simlint -- --workspace --baseline known.json # fail on NEW findings only
//! cargo run -p mlb-simlint -- --workspace --fix                 # apply mechanical fixes
//! cargo run -p mlb-simlint -- --list-rules
//! ```
//!
//! Exit status: 0 when the scan is clean, 1 when unsuppressed findings
//! exist, 2 on usage or discovery errors. With `--fix`, stale
//! suppressions and missing `#![forbid(unsafe_code)]` headers are
//! repaired first and the report (and exit status) reflect the
//! post-fix state, so findings that need a human still fail the run.
//! With `--baseline`, findings whose structural fingerprint is already
//! recorded in the baseline file don't affect the exit status (they are
//! still printed, marked `[baselined]`): CI ratchets on new findings
//! without forcing old debt to be paid first. `--update-baseline`
//! rewrites the file from the current scan.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mlb_simlint::rules::{rule_named, RULES};

fn usage() -> &'static str {
    "usage: mlb-simlint --workspace [--root <dir>] [--json] [--fix]\n\
     \x20                [--sarif <file>] [--baseline <file>] [--update-baseline <file>]\n\
     \x20      mlb-simlint --list-rules\n\
     \x20      mlb-simlint --explain <rule>\n\
     \n\
     Scans the cargo workspace for violations of the simulation\n\
     determinism invariants. See README.md \"Determinism guarantees\"."
}

/// Finds the workspace root: `--root` wins; otherwise walk up from the
/// current directory looking for a `Cargo.toml` with a `[workspace]`
/// table (works both from the repo root and from inside a crate).
fn find_root(explicit: Option<PathBuf>) -> Option<PathBuf> {
    if let Some(r) = explicit {
        return Some(r);
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut json = false;
    let mut list_rules = false;
    let mut explain: Option<String> = None;
    let mut apply_fix = false;
    let mut root: Option<PathBuf> = None;
    let mut sarif_out: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut update_baseline: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--list-rules" => list_rules = true,
            "--explain" => match args.next() {
                Some(r) => explain = Some(r),
                None => {
                    eprintln!(
                        "--explain needs a rule name (see --list-rules)\n{}",
                        usage()
                    );
                    return ExitCode::from(2);
                }
            },
            "--fix" => apply_fix = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a directory\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--sarif" => match args.next() {
                Some(p) => sarif_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--sarif needs an output file\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--baseline needs a baseline file\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--update-baseline" => match args.next() {
                Some(p) => update_baseline = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--update-baseline needs an output file\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    if let Some(name) = explain {
        let Some(r) = rule_named(&name) else {
            eprintln!("unknown rule `{name}`; mlb-simlint --list-rules shows what exists");
            return ExitCode::from(2);
        };
        println!("{}\n  {}\n", r.name, r.summary);
        println!("why:\n  {}\n", r.rationale);
        println!("example:");
        for line in r.example.lines() {
            println!("  {line}");
        }
        return ExitCode::SUCCESS;
    }
    if list_rules {
        for r in RULES {
            println!("{:<18} {}", r.name, r.summary);
        }
        return ExitCode::SUCCESS;
    }
    if !workspace {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    }
    let Some(root) = find_root(root) else {
        eprintln!("could not locate a workspace root (try --root)");
        return ExitCode::from(2);
    };
    if apply_fix {
        // Plan fixes from a first lint, apply them, then re-lint so the
        // printed report and the exit status describe the fixed tree.
        let fixes = match mlb_simlint::lint_workspace_full(Path::new(&root)) {
            Ok((_, fixes)) => fixes,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        match mlb_simlint::fix::apply_fixes(&fixes) {
            Ok(s) => {
                if !json {
                    eprintln!(
                        "fix: {} file(s) changed, {} suppression(s) removed, \
                         {} trimmed, {} header(s) added",
                        s.files_changed,
                        s.suppressions_removed,
                        s.suppressions_trimmed,
                        s.headers_added
                    );
                }
            }
            Err(e) => {
                eprintln!("fix failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    // A missing or malformed baseline is a usage error (exit 2), never
    // a silent "everything is new": load it before spending the scan.
    let baseline = match &baseline_path {
        None => None,
        Some(p) => {
            let text = match std::fs::read_to_string(p) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("reading baseline {}: {e}", p.display());
                    return ExitCode::from(2);
                }
            };
            match mlb_simlint::baseline::Baseline::from_json(&text) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("baseline {}: {e}", p.display());
                    return ExitCode::from(2);
                }
            }
        }
    };
    match mlb_simlint::lint_workspace(Path::new(&root)) {
        Ok(report) => {
            if let Some(p) = &sarif_out {
                if let Err(e) = std::fs::write(p, mlb_simlint::sarif::render_sarif(&report)) {
                    eprintln!("writing SARIF to {}: {e}", p.display());
                    return ExitCode::from(2);
                }
            }
            if let Some(p) = &update_baseline {
                if let Err(e) = std::fs::write(p, mlb_simlint::baseline::render(&report.findings)) {
                    eprintln!("writing baseline to {}: {e}", p.display());
                    return ExitCode::from(2);
                }
                if !json {
                    eprintln!(
                        "baseline: recorded {} finding(s) to {}",
                        report.findings.len(),
                        p.display()
                    );
                }
            }
            let new_count = match &baseline {
                None => report.findings.len(),
                Some(b) => report.findings.iter().filter(|f| !b.contains(f)).count(),
            };
            if json {
                println!("{}", report.render_json());
            } else if let Some(b) = &baseline {
                for f in &report.findings {
                    if b.contains(f) {
                        println!("{f} [baselined]");
                    } else {
                        println!("{f}");
                    }
                }
                println!(
                    "simlint: {} file(s), {} finding(s) ({} baselined), {} suppressed",
                    report.files_scanned.len(),
                    report.findings.len(),
                    report.findings.len() - new_count,
                    report.suppressed.len()
                );
            } else {
                print!("{}", report.render_human());
            }
            if new_count == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
