//! Repo automation. Usage: `cargo run -p xtask -- analyze`.
//!
//! `analyze` runs the `maeri-analyze` source gate over the workspace:
//! the six determinism rules plus the probe-twin, unwrap and doc-path
//! repository invariants (DESIGN.md §16). It exits non-zero, with one
//! line per finding, on any finding outside `analyze-suppressions.txt`
//! and on any stale suppression, so CI can gate on it.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("analyze") => run_analyze(),
        other => {
            eprintln!(
                "unknown task {:?}; available tasks: analyze",
                other.unwrap_or("<none>")
            );
            ExitCode::FAILURE
        }
    }
}

/// Runs the source analyzer over the whole workspace.
fn run_analyze() -> ExitCode {
    // This crate sits two levels below the workspace root.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let Some(root) = manifest.ancestors().nth(2) else {
        eprintln!(
            "xtask analyze: no workspace root above {}",
            manifest.display()
        );
        return ExitCode::FAILURE;
    };
    let analysis = match maeri_analyze::analyze_workspace(root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask analyze: workspace walk failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &analysis.findings {
        eprintln!(
            "xtask analyze: {}:{}: [{}] {}\n    fix: {}",
            f.path,
            f.line,
            f.rule.name(),
            f.message,
            f.rule.hint()
        );
    }
    for e in &analysis.suppress_errors {
        eprintln!("xtask analyze: {e}");
    }
    let s = analysis.stats;
    let per_rule: Vec<String> = analysis
        .per_rule()
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(r, n)| format!("{}={n}", r.name()))
        .collect();
    println!(
        "xtask analyze: {} files, {} fns ({} output-path), {} suppression(s) in use{}",
        s.files,
        s.functions,
        s.output_functions,
        s.suppressions_in_use,
        if per_rule.is_empty() {
            String::new()
        } else {
            format!("; findings: {}", per_rule.join(" "))
        }
    );
    if analysis.clean() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xtask analyze: {} finding(s), {} suppression error(s)",
            analysis.findings.len(),
            analysis.suppress_errors.len()
        );
        ExitCode::FAILURE
    }
}
