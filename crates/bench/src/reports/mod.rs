//! Printable paper-artifact reports, one module per table/figure.
//!
//! Each module exposes `run()`, which prints the artifact's tables and
//! paper-vs-measured summary to stdout. The `src/bin/*` binaries are
//! thin wrappers over these functions, and `regen_all` replays the
//! whole [`REPORTS`] registry in-process — the single source of truth
//! for what "every paper artifact" means — through the shared
//! simulation runtime.

pub mod ablations;
pub mod chaos_recovery;
pub mod energy;
pub mod fault_sweep;
pub mod figure11;
pub mod figure12;
pub mod figure13;
pub mod figure14;
pub mod figure15;
pub mod figure16;
pub mod figure17;
pub mod fleet_schedule;
pub mod headline;
pub mod mapping_search;
pub mod service_load;
pub mod service_trace;
pub mod table1;
pub mod table3;
pub mod telemetry_profile;

/// Every report in regeneration order: `(id, name, printer)`. Report
/// IDs are stable handles quoted by `EXPERIMENTS.md`; they start at 1
/// and stay contiguous (a registry test enforces both).
pub const REPORTS: &[(usize, &str, fn())] = &[
    (1, "table1", table1::run),
    (2, "table3", table3::run),
    (3, "figure11", figure11::run),
    (4, "figure12", figure12::run),
    (5, "figure13", figure13::run),
    (6, "figure14", figure14::run),
    (7, "figure15", figure15::run),
    (8, "figure16", figure16::run),
    (9, "figure17", figure17::run),
    (10, "headline", headline::run),
    (11, "ablations", ablations::run),
    (12, "energy", energy::run),
    (13, "fault_sweep", fault_sweep::run),
    (14, "telemetry_profile", telemetry_profile::run),
    (15, "mapping_search", mapping_search::run),
    (16, "service_load", service_load::run),
    (17, "chaos_recovery", chaos_recovery::run),
    (18, "service_trace", service_trace::run),
    (19, "fleet_schedule", fleet_schedule::run),
];

#[cfg(test)]
mod tests {
    use super::REPORTS;

    #[test]
    fn registry_is_complete_and_unique() {
        assert_eq!(REPORTS.len(), 19);
        let mut names: Vec<&str> = REPORTS.iter().map(|(_, n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REPORTS.len(), "duplicate report name");
    }

    #[test]
    fn every_report_has_a_binary() {
        // CI checks each `src/bin/` report at one and four workers, so a
        // report without a binary would escape that check.
        let bins = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        for (_, name, _) in REPORTS {
            assert!(
                bins.join(format!("{name}.rs")).is_file(),
                "report {name} has no src/bin/{name}.rs"
            );
        }
    }

    #[test]
    fn report_ids_are_unique_and_contiguous() {
        for (position, (id, name, _)) in REPORTS.iter().enumerate() {
            assert_eq!(
                *id,
                position + 1,
                "report {name} must carry id {} (ids start at 1, no gaps)",
                position + 1
            );
        }
    }
}
