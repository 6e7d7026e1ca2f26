//! Every bench target is a gate: a `[[bench]]` that no CI step runs
//! measures nothing anyone reads, so it must not exist.

#[test]
fn ci_runs_every_declared_bench() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let manifest = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
        .expect("mlb-bench manifest");
    let ci = std::fs::read_to_string(format!("{root}/.github/workflows/ci.yml")).expect("CI file");
    let benches: Vec<&str> = manifest
        .split("[[bench]]")
        .skip(1)
        .map(|section| {
            section
                .lines()
                .find_map(|l| l.trim().strip_prefix("name = "))
                .expect("every [[bench]] has a name")
                .trim_matches('"')
        })
        .collect();
    assert!(!benches.is_empty(), "no [[bench]] targets found");
    let words: Vec<&str> = ci.split_whitespace().collect();
    let ungated: Vec<&&str> = benches
        .iter()
        .filter(|name| !words.windows(2).any(|w| w == ["--bench", name]))
        .collect();
    assert!(ungated.is_empty(), "no CI step runs {ungated:?}");
}
