//! Mapping search: the auto-tuner versus the built-in heuristics. The
//! other reports run each layer at the heuristic mapper's single named
//! point; this one sweeps the whole mapping space (VN partition,
//! replication cap, loop order) per layer, validates the analytic
//! frontier against the clocked simulator, and reports what tuning
//! buys — MAERI's reconfigurability argument made quantitative.

use crate::{experiments, report};
use maeri_sim::table::{fmt_f64, Table};

/// Prints this report to stdout.
pub fn run() {
    report::header(
        "Mapping search — auto-tuned vs heuristic mappings",
        "Section 5's flexible-mapping claim: per-layer VN shapes beat one-size-fits-all",
    );
    let results = experiments::mapping_search();
    let mut table = Table::new(vec![
        "layer",
        "kind",
        "space",
        "scored",
        "heuristic",
        "tuned",
        "speedup",
        "tuned mapping",
        "rank",
    ]);
    for r in &results {
        table.row(vec![
            r.layer.clone(),
            r.kind.clone(),
            r.space.to_string(),
            r.counters.scored.to_string(),
            report::cycles(r.heuristic_cycles()),
            report::cycles(r.best_cycles()),
            format!("{}x", fmt_f64(r.speedup(), 3)),
            r.describe(&r.best.candidate),
            match r.counters.rank_agreement {
                Some(true) => "agree".to_owned(),
                Some(false) => "differ".to_owned(),
                None => "-".to_owned(),
            },
        ]);
    }
    report::section(
        "Exhaustive search, 64 switches, top-8 frontier trace-validated",
        &table,
    );
    let improved = results.iter().filter(|r| r.speedup() > 1.0).count();
    let best = results
        .iter()
        .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
        .expect("search set is non-empty");
    let validated: u64 = results.iter().map(|r| r.counters.validated).sum();
    let agreements = results
        .iter()
        .filter(|r| r.counters.rank_agreement == Some(true))
        .count();
    let checks = results
        .iter()
        .filter(|r| r.counters.rank_agreement.is_some())
        .count();
    report::summary(&[
        format!(
            "tuned mappings match or beat the heuristic on all {} layers, \
             improving {improved} of them (heuristics are named points in the \
             same space, so tuning can never lose)",
            results.len()
        ),
        format!(
            "largest win: {} at {}x over the heuristic ({} -> {} cycles)",
            best.layer,
            fmt_f64(best.speedup(), 3),
            best.heuristic_cycles(),
            best.best_cycles()
        ),
        format!(
            "{validated} frontier members trace-validated; analytic and clocked \
             ranking picked the same winner on {agreements}/{checks} CONV searches"
        ),
    ]);
}
