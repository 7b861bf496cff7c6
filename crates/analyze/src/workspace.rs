//! Workspace traversal and the end-to-end analysis entry point.
//!
//! [`analyze_workspace`] is what `cargo run -p xtask -- analyze`
//! calls: collect every non-test `.rs` file under `src/`, `crates/`
//! and `compat/`, parse, classify, run the rule catalog, check the
//! top-level docs' path references, then apply the committed
//! suppression file. Tests under `tests/` directories are excluded
//! wholesale (the rules bind shipped code;
//! `#[cfg(test)]` blanking already covers inline tests), as are
//! `target/` build outputs.

use crate::ast::FileAst;
use crate::classify::output_path;
use crate::rules::{doc_paths, run_all};
use crate::suppress::{self, SuppressError, Suppression};
use crate::{Analysis, Stats};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The committed suppression file, relative to the workspace root.
pub const SUPPRESSION_FILE: &str = "analyze-suppressions.txt";

/// Source trees the analyzer walks, relative to the workspace root.
const SOURCE_ROOTS: &[&str] = &["src", "crates", "compat"];

/// Top-level docs whose backtick-quoted paths must exist.
const DOCS: &[&str] = &["README.md", "ROADMAP.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "tests", "benches"];

/// Collects every analyzable `.rs` path under the workspace root, in
/// sorted (deterministic) order, as repo-relative slash paths.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for tree in SOURCE_ROOTS {
        let dir = root.join(tree);
        if dir.is_dir() {
            collect_rs(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !SKIP_DIRS.contains(&name) {
                collect_rs(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Repo-relative, slash-separated rendering of `path` under `root`.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Reads the suppression file at the workspace root; a missing file
/// means no suppressions.
pub fn load_suppressions(root: &Path) -> Result<Vec<Suppression>, Vec<SuppressError>> {
    match fs::read_to_string(root.join(SUPPRESSION_FILE)) {
        Ok(body) => suppress::parse(&body),
        Err(_) => Ok(Vec::new()),
    }
}

/// Runs the full pipeline over the workspace at `root`.
///
/// # Errors
///
/// Returns `Err` only for I/O failures walking or reading sources;
/// rule findings and suppression problems are reported inside the
/// [`Analysis`], not as errors.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let paths = workspace_files(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let source = fs::read_to_string(path)?;
        files.push(FileAst::parse(&relative(root, path), &source));
    }
    let (suppressions, mut file_errors) = match load_suppressions(root) {
        Ok(s) => (s, Vec::new()),
        Err(e) => (Vec::new(), e),
    };
    let flags = output_path(&files);
    let mut findings = run_all(&files, &flags);
    for doc in DOCS {
        // A doc that is absent quotes nothing.
        if let Ok(content) = fs::read_to_string(root.join(doc)) {
            findings.extend(doc_paths(doc, &content, &|path: &str| {
                root.join(path).exists()
            }));
        }
    }
    findings.sort();
    let (kept, silenced, stale) = suppress::apply(findings, &suppressions);
    file_errors.extend(stale);

    let output_fns = flags.iter().map(|f| f.iter().filter(|&&b| b).count()).sum();
    let total_fns = files.iter().map(|f| f.fns.len()).sum();
    let lines_in_use = silenced
        .iter()
        .map(|f| (f.rule, f.path.as_str()))
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    Ok(Analysis {
        stats: Stats {
            files: files.len(),
            functions: total_fns,
            output_functions: output_fns,
            suppressions_in_use: lines_in_use,
        },
        findings: kept,
        suppressed: silenced,
        suppress_errors: file_errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The analyzer crate's own sources are reachable from any test
    /// run, so the walker and relative-path logic can be exercised
    /// against the real workspace root.
    fn repo_root() -> PathBuf {
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .ancestors()
            .nth(2)
            .expect("crates/analyze has a workspace root two levels up")
            .to_path_buf()
    }

    #[test]
    fn walker_finds_this_file_and_skips_tests_dirs() {
        let root = repo_root();
        let files = workspace_files(&root).unwrap();
        let rels: Vec<String> = files.iter().map(|p| relative(&root, p)).collect();
        assert!(rels.iter().any(|p| p == "crates/analyze/src/workspace.rs"));
        assert!(rels.iter().all(|p| !p.contains("/tests/")));
        assert!(rels.iter().all(|p| !p.contains("/target/")));
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted, "walk order is deterministic");
    }

    #[test]
    fn relative_paths_are_slash_separated() {
        let root = Path::new("/ws");
        let path = Path::new("/ws/crates/a/src/lib.rs");
        assert_eq!(relative(root, path), "crates/a/src/lib.rs");
    }
}
