//! The workspace's crate graph, checked against a committed table.
//!
//! Every intra-workspace edge in a `crates/*/Cargo.toml` `[dependencies]`
//! table (dev-dependencies excluded) must appear in [`ALLOWED`], and every
//! row of [`ALLOWED`] must still exist — a PR that removes an edge deletes
//! its row. The production crates never depend on the simulator, the
//! attack models or the benchmark harness; the edges that do so today
//! are listed with the ROADMAP item that removes them.

use std::collections::BTreeSet;
use std::path::Path;

/// The crates that ship in a deployed gateway or network server.
const PRODUCTION: [&str; 10] = [
    "softlora",
    "softlora-dsp",
    "softlora-phy",
    "softlora-lorawan",
    "softlora-crypto",
    "softlora-runtime",
    "softlora-store",
    "softlora-telemetry",
    "softlora-net",
    "softlora-ha",
];

/// Crates a production crate must not depend on.
const TEST_ONLY: [&str; 3] = ["softlora-sim", "softlora-attack", "softlora-bench"];

/// Every allowed `(crate, dependency)` edge. The third column names the
/// ROADMAP item that removes an edge a production crate should not have.
const ALLOWED: &[(&str, &str, Option<&str>)] = &[
    ("softlora", "softlora-dsp", None),
    ("softlora", "softlora-lorawan", None),
    ("softlora", "softlora-phy", None),
    ("softlora", "softlora-runtime", None),
    ("softlora", "softlora-sim", Some("item 14")),
    ("softlora", "softlora-store", None),
    ("softlora", "softlora-telemetry", None),
    ("softlora-attack", "softlora-lorawan", None),
    ("softlora-attack", "softlora-phy", None),
    ("softlora-attack", "softlora-sim", None),
    ("softlora-bench", "softlora", None),
    ("softlora-bench", "softlora-attack", None),
    ("softlora-bench", "softlora-crypto", None),
    ("softlora-bench", "softlora-dsp", None),
    ("softlora-bench", "softlora-ha", None),
    ("softlora-bench", "softlora-lorawan", None),
    ("softlora-bench", "softlora-net", None),
    ("softlora-bench", "softlora-phy", None),
    ("softlora-bench", "softlora-runtime", None),
    ("softlora-bench", "softlora-sim", None),
    ("softlora-bench", "softlora-store", None),
    ("softlora-bench", "softlora-telemetry", None),
    ("softlora-dsp", "softlora-telemetry", None),
    ("softlora-ha", "softlora", None),
    ("softlora-ha", "softlora-store", None),
    ("softlora-ha", "softlora-telemetry", None),
    ("softlora-lorawan", "softlora-crypto", None),
    ("softlora-lorawan", "softlora-phy", None),
    ("softlora-net", "softlora", None),
    ("softlora-net", "softlora-attack", Some("item 1(h)")),
    ("softlora-net", "softlora-phy", None),
    ("softlora-net", "softlora-runtime", None),
    ("softlora-net", "softlora-sim", Some("item 14")),
    ("softlora-net", "softlora-store", None),
    ("softlora-net", "softlora-telemetry", None),
    ("softlora-phy", "softlora-dsp", None),
    ("softlora-runtime", "softlora-telemetry", None),
    ("softlora-sim", "softlora-lorawan", None),
    ("softlora-sim", "softlora-phy", None),
    ("softlora-sim", "softlora-runtime", None),
    ("softlora-store", "softlora-telemetry", None),
];

/// The package name and the workspace dependencies of one manifest's
/// `[dependencies]` table.
fn parse_manifest(text: &str) -> (String, Vec<String>) {
    let mut section = "";
    let mut name = None;
    let mut deps = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        if section == "[package]" && name.is_none() {
            if let Some(value) = line.strip_prefix("name") {
                let value = value.trim_start().trim_start_matches('=').trim();
                name = Some(value.trim_matches('"').to_string());
            }
        }
        if section == "[dependencies]" {
            let key = line.split(['.', '=', ' ']).next().unwrap_or("");
            if key.starts_with("softlora") {
                deps.push(key.to_string());
            }
        }
    }
    (name.expect("manifest has a package name"), deps)
}

/// Every intra-workspace `[dependencies]` edge under `crates/`.
fn edges() -> BTreeSet<(String, String)> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut edges = BTreeSet::new();
    for entry in std::fs::read_dir(&crates).expect("crates/ is readable") {
        let manifest = entry.expect("directory entry").path().join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&manifest) else { continue };
        let (name, deps) = parse_manifest(&text);
        for dep in deps {
            edges.insert((name.clone(), dep));
        }
    }
    edges
}

#[test]
fn parser_reads_only_the_dependencies_table() {
    let (name, deps) = parse_manifest(
        "[package]\nname = \"softlora-x\"\n\n[dependencies]\nsoftlora-dsp.workspace = true\n\
         softlora-phy = { path = \"../phy\" }\nrand.workspace = true\n\n\
         [dev-dependencies]\nsoftlora-sim.workspace = true\n",
    );
    assert_eq!(name, "softlora-x");
    assert_eq!(deps, ["softlora-dsp", "softlora-phy"]);
}

#[test]
fn dependency_edges_match_the_committed_table() {
    let actual = edges();
    assert!(actual.len() > 20, "found only {} edges: is crates/ where it should be?", actual.len());
    let allowed: BTreeSet<(String, String)> =
        ALLOWED.iter().map(|(from, to, _)| (from.to_string(), to.to_string())).collect();
    let added: Vec<_> = actual.difference(&allowed).collect();
    assert!(added.is_empty(), "edges missing from ALLOWED: {added:?}");
    let removed: Vec<_> = allowed.difference(&actual).collect();
    assert!(removed.is_empty(), "ALLOWED rows whose edge is gone (delete them): {removed:?}");
}

#[test]
fn production_crates_stay_off_sim_attack_and_bench() {
    for (from, to, item) in ALLOWED {
        let forbidden = PRODUCTION.contains(from) && TEST_ONLY.contains(to);
        assert_eq!(
            forbidden,
            item.is_some(),
            "{from} → {to}: a production crate may reach a test-only crate only through an \
             edge marked with the ROADMAP item that removes it"
        );
    }
}
