//! The provenance header every `BENCH_*.json` artifact carries.
//!
//! `BENCH_kernel.json` and `BENCH_policies.json` are per-commit
//! snapshots; each starts with the same `schema_version`/`commit`/`host`
//! fields so a reader can tell which tree and which kind of host produced
//! the numbers. Wall-clock comparisons across commits come from
//! perfbench's alternated parent/change pairs, not from these files.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Version of the `BENCH_*.json` header format.
pub const SCHEMA_VERSION: u32 = 1;

/// Shared provenance header for every BENCH artifact: who produced the
/// numbers, where, and under which schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchMeta {
    /// Header schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Git commit of the tree that ran the bench (`"unknown"` outside a
    /// repository).
    pub commit: String,
    /// Coarse host fingerprint, e.g. `"linux-x86_64-8cpu"` — enough to
    /// tell which kind of machine measured a wall-clock number without
    /// leaking hostnames into committed artifacts.
    pub host: String,
}

impl BenchMeta {
    /// Captures the current commit and host fingerprint.
    pub fn capture() -> Self {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
        let cpus = std::thread::available_parallelism().map_or(0, usize::from);
        BenchMeta {
            schema_version: SCHEMA_VERSION,
            commit,
            host: format!(
                "{}-{}-{}cpu",
                std::env::consts::OS,
                std::env::consts::ARCH,
                cpus
            ),
        }
    }

    /// A fully pinned meta for tests and fixtures.
    pub fn fixed(commit: &str, host: &str) -> Self {
        BenchMeta {
            schema_version: SCHEMA_VERSION,
            commit: commit.to_owned(),
            host: host.to_owned(),
        }
    }

    /// The shared header fields as pretty-printed JSON lines (two-space
    /// indent, trailing comma) for embedding at the top of a
    /// `BENCH_*.json` object.
    pub fn json_header(&self) -> String {
        format!(
            "  \"schema_version\": {},\n  \"commit\": \"{}\",\n  \"host\": \"{}\",\n",
            self.schema_version,
            escape(&self.commit),
            escape(&self.host)
        )
    }
}

/// Where a `BENCH_*.json` artifact goes: the workspace root for a full
/// run (the committed per-commit snapshot), `target/` for a smoke run so
/// CI-sized numbers never overwrite the committed file.
fn artifact_path(root: &Path, file_name: &str, smoke: bool) -> PathBuf {
    if smoke {
        root.join("target").join(file_name)
    } else {
        root.join(file_name)
    }
}

/// Writes a `BENCH_*.json` artifact under the workspace root: at the
/// root itself, or in `target/` when `smoke` is set.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_artifact(file_name: &str, json: &str, smoke: bool) {
    // Bin and bench cwd varies; anchor on the compile-time package dir.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let path = artifact_path(&root, file_name, smoke);
    std::fs::create_dir_all(path.parent().expect("artifact path has a parent"))
        .and_then(|()| std::fs::write(&path, json))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    eprintln!("  wrote {}", path.display());
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_header_is_shared_shape() {
        let meta = BenchMeta::fixed("deadbeef", "linux-x86_64-8cpu");
        let header = meta.json_header();
        assert!(header.contains("\"schema_version\": 1,"));
        assert!(header.contains("\"commit\": \"deadbeef\","));
        assert!(header.contains("\"host\": \"linux-x86_64-8cpu\","));
    }

    #[test]
    fn smoke_artifacts_land_under_target() {
        let root = Path::new("/ws");
        let full = artifact_path(root, "BENCH_kernel.json", false);
        assert_eq!(full, root.join("BENCH_kernel.json"));
        let smoke = artifact_path(root, "BENCH_kernel.json", true);
        assert_eq!(smoke, root.join("target/BENCH_kernel.json"));
    }

    #[test]
    fn capture_produces_plausible_meta() {
        let meta = BenchMeta::capture();
        assert_eq!(meta.schema_version, SCHEMA_VERSION);
        assert!(!meta.commit.is_empty());
        assert!(meta.host.contains(std::env::consts::ARCH));
    }
}
