//! The committed suppression file: `analyze-suppressions.txt`.
//!
//! Each suppression is one line, `<rule> <path> <reason...>`, at
//! rule-by-file granularity, for any rule in the catalog. A
//! suppression that no longer matches any finding is itself an error,
//! so the file can only shrink as hazards are fixed. Parse errors (unknown rule ids,
//! missing reasons) are errors too; a suppression without a written
//! justification is indistinguishable from a rubber stamp.

use crate::rules::{Finding, Rule};
use std::collections::BTreeSet;

/// One parsed suppression line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule this line silences.
    pub rule: Rule,
    /// Repo-relative file the rule is silenced in.
    pub path: String,
    /// Why the finding is acceptable (free text, required).
    pub reason: String,
}

/// Problems with the suppression file itself — these fail the run
/// exactly like findings do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuppressError {
    /// A line that does not parse: `(line_number, explanation)`.
    Malformed(usize, String),
    /// A suppression that matched no finding this run.
    Stale(Suppression),
}

impl std::fmt::Display for SuppressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuppressError::Malformed(line, why) => {
                write!(f, "suppression file line {line}: {why}")
            }
            SuppressError::Stale(s) => write!(
                f,
                "stale suppression: `{} {}` matched no finding — delete the line",
                s.rule.name(),
                s.path
            ),
        }
    }
}

/// Parses the suppression file body. Blank lines and `#` comments are
/// skipped; everything else must be `<rule> <path> <reason...>`.
pub fn parse(body: &str) -> Result<Vec<Suppression>, Vec<SuppressError>> {
    let mut out = Vec::new();
    let mut errors = Vec::new();
    for (i, raw) in body.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let rule_word = parts.next().unwrap_or_default();
        let path = parts.next().unwrap_or_default().trim();
        let reason = parts.next().unwrap_or_default().trim();
        let Some(rule) = Rule::from_name(rule_word) else {
            errors.push(SuppressError::Malformed(
                i + 1,
                format!("unknown rule `{rule_word}`"),
            ));
            continue;
        };
        if path.is_empty() {
            errors.push(SuppressError::Malformed(i + 1, "missing path".to_owned()));
            continue;
        }
        if reason.is_empty() {
            errors.push(SuppressError::Malformed(
                i + 1,
                format!("suppression of `{rule_word}` in {path} has no reason"),
            ));
            continue;
        }
        out.push(Suppression {
            rule,
            path: path.to_owned(),
            reason: reason.to_owned(),
        });
    }
    if errors.is_empty() {
        Ok(out)
    } else {
        Err(errors)
    }
}

/// Splits `findings` into (kept, suppressed) under `suppressions`, and
/// reports every suppression that matched nothing as stale.
pub fn apply(
    findings: Vec<Finding>,
    suppressions: &[Suppression],
) -> (Vec<Finding>, Vec<Finding>, Vec<SuppressError>) {
    let mut kept = Vec::new();
    let mut silenced = Vec::new();
    let mut used: BTreeSet<usize> = BTreeSet::new();
    for finding in findings {
        let hit = suppressions
            .iter()
            .position(|s| s.rule == finding.rule && s.path == finding.path);
        match hit {
            Some(i) => {
                used.insert(i);
                silenced.push(finding);
            }
            None => kept.push(finding),
        }
    }
    let stale = suppressions
        .iter()
        .enumerate()
        .filter(|(i, _)| !used.contains(i))
        .map(|(_, s)| SuppressError::Stale(s.clone()))
        .collect();
    (kept, silenced, stale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule, path: &str) -> Finding {
        Finding {
            rule,
            path: path.to_owned(),
            line: 1,
            message: "m".to_owned(),
        }
    }

    #[test]
    fn parses_lines_and_skips_comments() {
        let body = "# comment\n\nwall_clock crates/a/src/x.rs timing is telemetry-only here\n";
        let parsed = parse(body).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].rule, Rule::WallClock);
        assert_eq!(parsed[0].path, "crates/a/src/x.rs");
        assert!(parsed[0].reason.contains("telemetry-only"));
    }

    #[test]
    fn unknown_rules_and_missing_reasons_are_errors() {
        let body = "bogus_rule crates/a/src/x.rs why\nwall_clock crates/a/src/x.rs\n";
        let errors = parse(body).unwrap_err();
        assert_eq!(errors.len(), 2);
        assert!(matches!(errors[0], SuppressError::Malformed(1, _)));
        assert!(matches!(errors[1], SuppressError::Malformed(2, _)));
    }

    #[test]
    fn apply_silences_matching_findings() {
        let sup = parse("wall_clock crates/a/src/x.rs reason\n").unwrap();
        let all = vec![
            finding(Rule::WallClock, "crates/a/src/x.rs"),
            finding(Rule::WallClock, "crates/b/src/y.rs"),
        ];
        let (kept, silenced, stale) = apply(all, &sup);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].path, "crates/b/src/y.rs");
        assert_eq!(silenced.len(), 1);
        assert_eq!(stale, []);
    }

    #[test]
    fn unused_suppressions_are_stale() {
        let sup = parse("unseeded_rng crates/a/src/x.rs reason\n").unwrap();
        let (kept, silenced, stale) = apply(Vec::new(), &sup);
        assert_eq!(kept, []);
        assert_eq!(silenced, []);
        assert_eq!(stale.len(), 1);
        assert!(stale[0].to_string().contains("stale suppression"));
        assert!(stale[0].to_string().contains("unseeded_rng"));
    }

    #[test]
    fn suppression_is_rule_specific() {
        let sup = parse("wall_clock crates/a/src/x.rs reason\n").unwrap();
        let all = vec![finding(Rule::UnseededRng, "crates/a/src/x.rs")];
        let (kept, _, stale) = apply(all, &sup);
        assert_eq!(kept.len(), 1, "different rule in same file is not silenced");
        assert_eq!(stale.len(), 1);
    }
}
