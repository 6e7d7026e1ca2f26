//! `repro --prof` only observes: the figure CSVs it writes are
//! byte-identical to a run without the flag, and the profile lands next
//! to them as `prof_<run>.jsonl`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repro(out: &Path, extra: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig6", "fig9", "--secs", "3", "--out"])
        .arg(out)
        .args(extra)
        .output()
        .expect("repro runs");
    assert!(
        output.status.success(),
        "repro {extra:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

fn files(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("out dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    found.sort();
    found
}

#[test]
fn prof_flag_leaves_csvs_byte_identical() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("repro_prof");
    let (plain, profiled) = (root.join("plain"), root.join("profiled"));
    for dir in [&plain, &profiled] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let plain_stdout = repro(&plain, &[]);
    let prof_stdout = repro(&profiled, &["--prof"]);

    let csvs = files(&plain, "csv");
    assert!(!csvs.is_empty(), "fig6/fig9 wrote no CSV");
    let names = |paths: &[PathBuf]| -> Vec<_> {
        paths
            .iter()
            .map(|p| p.file_name().unwrap().to_owned())
            .collect()
    };
    assert_eq!(names(&csvs), names(&files(&profiled, "csv")));
    for csv in &csvs {
        let twin = profiled.join(csv.file_name().unwrap());
        assert_eq!(
            std::fs::read(csv).unwrap(),
            std::fs::read(&twin).unwrap(),
            "{} differs with --prof",
            csv.display()
        );
    }

    assert!(files(&plain, "jsonl").is_empty());
    assert!(!plain_stdout.contains("kernel profile (prof.*)"));
    // fig6 and fig9 share the original total_request run and fig9 adds
    // the fixed one: one profile per distinct run.
    let profiles = files(&profiled, "jsonl");
    assert_eq!(
        names(&profiles),
        ["prof_total_request.jsonl", "prof_total_request_fixed.jsonl"]
            .map(std::ffi::OsString::from)
    );
    for p in &profiles {
        let jsonl = std::fs::read_to_string(p).unwrap();
        assert!(jsonl.contains("prof.phase.handle.count"), "{}", p.display());
    }
    assert_eq!(prof_stdout.matches("kernel profile (prof.*)").count(), 2);
}
