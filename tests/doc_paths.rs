//! Every repository path the docs cite must exist.
//!
//! Scans `README.md` and the `//!`/`///` rustdoc of `src/` and
//! `crates/*/src/` for backticked spans that name a repository path —
//! spans without whitespace that contain a `/` and either start at a
//! top-level entry of the repository (`crates/…`, `tests/…`) or end in a
//! file extension (`foo/bar.md`) — and requires each to resolve. A
//! trailing `:line` is ignored, and a `*` pattern needs only the directory
//! before it.

use std::path::{Path, PathBuf};

/// File extensions that make a slashed span a path even when its first
/// component is not a top-level entry.
const EXTENSIONS: [&str; 6] = [".rs", ".md", ".toml", ".json", ".yml", ".lock"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The backticked spans of `line` that cite a repository path.
fn cited_paths(line: &str) -> Vec<&str> {
    line.split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| span.contains('/') && !span.contains(char::is_whitespace))
        .filter(|span| {
            let first = span.split('/').next().unwrap_or("");
            let top_level = !first.is_empty() && root().join(first).exists();
            let file = span.split(':').next().unwrap_or(span);
            top_level || EXTENSIONS.iter().any(|ext| file.ends_with(ext))
        })
        .collect()
}

/// Whether a cited path resolves under the repository root.
fn resolves(span: &str) -> bool {
    let path = span.split(':').next().unwrap_or(span);
    match path.find('*') {
        Some(star) => root().join(&path[..star]).parent().is_some_and(Path::exists),
        None => root().join(path).exists(),
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(file, line number, cited path)` for every citation in the scanned
/// docs: every line of `README.md`, and the rustdoc lines of the sources.
fn citations() -> Vec<(PathBuf, usize, String)> {
    let mut files = vec![root().join("README.md")];
    rust_files(&root().join("src"), &mut files);
    for entry in std::fs::read_dir(root().join("crates")).expect("crates/ is readable") {
        rust_files(&entry.expect("directory entry").path().join("src"), &mut files);
    }
    let mut found = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("doc source is readable");
        let rust = file.extension().is_some_and(|e| e == "rs");
        for (n, line) in text.lines().enumerate() {
            let line = line.trim_start();
            if rust && !(line.starts_with("//!") || line.starts_with("///")) {
                continue;
            }
            found.extend(
                cited_paths(line).into_iter().map(|p| (file.clone(), n + 1, p.to_string())),
            );
        }
    }
    found
}

#[test]
fn span_classification() {
    assert_eq!(
        cited_paths("see `crates/x/y.rs` and `DESIGN/notes.md`"),
        ["crates/x/y.rs", "DESIGN/notes.md"]
    );
    assert_eq!(cited_paths("`w1/w2/w3`, `1/N`, `a / b`, `fft/1024`"), Vec::<&str>::new());
    assert_eq!(cited_paths("`crates/core/src/config.rs:74`"), ["crates/core/src/config.rs:74"]);
    assert!(resolves("crates/core/src/config.rs:74"));
    assert!(resolves("vendor/*"));
    assert!(!resolves("crates/x/y.rs"));
}

#[test]
fn every_cited_repository_path_exists() {
    let found = citations();
    assert!(
        found.len() > 20,
        "found only {} citations: is README.md where it should be?",
        found.len()
    );
    let missing: Vec<String> = found
        .iter()
        .filter(|(_, _, path)| !resolves(path))
        .map(|(file, line, path)| {
            format!("{}:{line}: `{path}`", file.strip_prefix(root()).unwrap_or(file).display())
        })
        .collect();
    assert!(missing.is_empty(), "docs cite paths that do not exist:\n{}", missing.join("\n"));
}
