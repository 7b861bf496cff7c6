//! The rule catalog.
//!
//! Every rule is a pure function over parsed files (plus, for the
//! determinism rules, the output-path classification), returning
//! structured [`Finding`]s. Rules scan scrubbed code (comments and
//! strings blanked), so pattern text appearing in docs or messages
//! never fires. The first six rules cover the hazards a data-oriented,
//! parallel cycle kernel (ROADMAP item 1) is most likely to introduce:
//!
//! 1. `hash_order` — iteration over `HashMap`/`HashSet` whose order
//!    can reach output without a sort or BTree collection in between.
//! 2. `wall_clock` — `Instant::now`/`SystemTime::now` on the output
//!    path outside the allowlisted watchdog/metrics modules.
//! 3. `unseeded_rng` — entropy-seeded randomness anywhere in shipped
//!    code (`thread_rng`, `from_entropy`, `OsRng`, ...): replay
//!    purity is global, so this rule ignores classification.
//! 4. `float_reduce` — order-sensitive float reductions
//!    (`sum`/`product`/`fold`/`reduce`) over parallel iterators.
//! 5. `thread_influence` — `thread::current()` identity or
//!    `available_parallelism` observable from the output path.
//! 6. `partial_cmp_sort` — comparators built on `partial_cmp` inside
//!    sorts/extrema, where NaN makes the order (and the output)
//!    input-dependent; `total_cmp` is the deterministic spelling.
//!
//! The last three hold repository invariants and ignore
//! classification:
//!
//! 7. `probe_twin` — every `pub fn NAME_probed` in `crates/maeri` and
//!    `crates/noc` has a plain `fn NAME` in the same file, and the two
//!    delegate, so the traced and plain fabric models cannot drift
//!    apart.
//! 8. `unwrap` — `.unwrap()` / `.expect(` in shipped code; a file that
//!    panics on a violated invariant names it in the suppression file.
//! 9. `doc_path` — a backtick-quoted repo path in a top-level doc that
//!    does not exist in the tree.

use crate::ast::{FileAst, FnItem};
use crate::classify::called_names;
use crate::lexer::line_of;
use std::collections::BTreeSet;

/// Stable identifiers for the rule catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Hash-ordered iteration reaching output.
    HashOrder,
    /// Wall-clock reads on the output path.
    WallClock,
    /// Entropy-seeded randomness in shipped code.
    UnseededRng,
    /// Order-sensitive float reduction over a parallel iterator.
    FloatReduce,
    /// Thread identity / parallelism influencing data.
    ThreadInfluence,
    /// Non-total float comparators in sorts.
    PartialCmpSort,
    /// A probed fabric entry point without a delegating plain twin.
    ProbeTwin,
    /// A panicking `unwrap`/`expect` in shipped code.
    Unwrap,
    /// A top-level doc quoting a path that does not exist.
    DocPath,
}

impl Rule {
    /// Every rule, in catalog order.
    pub const ALL: [Rule; 9] = [
        Rule::HashOrder,
        Rule::WallClock,
        Rule::UnseededRng,
        Rule::FloatReduce,
        Rule::ThreadInfluence,
        Rule::PartialCmpSort,
        Rule::ProbeTwin,
        Rule::Unwrap,
        Rule::DocPath,
    ];

    /// The rule's stable snake_case id (used in suppression files).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashOrder => "hash_order",
            Rule::WallClock => "wall_clock",
            Rule::UnseededRng => "unseeded_rng",
            Rule::FloatReduce => "float_reduce",
            Rule::ThreadInfluence => "thread_influence",
            Rule::PartialCmpSort => "partial_cmp_sort",
            Rule::ProbeTwin => "probe_twin",
            Rule::Unwrap => "unwrap",
            Rule::DocPath => "doc_path",
        }
    }

    /// Parses a stable id back into a rule.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// How to fix a violation of this rule.
    #[must_use]
    pub fn hint(self) -> &'static str {
        match self {
            Rule::HashOrder => {
                "iterate a BTreeMap/BTreeSet, or collect and sort before the order can escape"
            }
            Rule::WallClock => {
                "thread a virtual clock or seeded timestamp through; wall time belongs in \
                 watchdog/metrics modules only"
            }
            Rule::UnseededRng => "use the seeded deterministic RNG (maeri_sim::rng) instead",
            Rule::FloatReduce => {
                "reduce sequentially in a fixed order, or use a fixed-shape tree reduction"
            }
            Rule::ThreadInfluence => {
                "worker counts may size pools, but results must not observe thread identity; \
                 derive data from job content instead"
            }
            Rule::PartialCmpSort => "use f64::total_cmp (or a key cast) for a total order",
            Rule::ProbeTwin => {
                "make one twin call the other (the plain entry point is usually the probed \
                 one with a NullSink)"
            }
            Rule::Unwrap => {
                "return a Result; if the panic guards a documented invariant, add an `unwrap` \
                 suppression for the file that names it"
            }
            Rule::DocPath => "fix the reference, or restore the path it names",
        }
    }
}

/// One rule violation: where, what, and how to fix it. Findings order
/// by (path, line, rule, message): the field order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// What was matched, with context.
    pub message: String,
}

impl Finding {
    fn new(rule: Rule, file: &FileAst, idx: usize, message: String) -> Finding {
        Finding {
            rule,
            path: file.path.clone(),
            line: line_of(&file.code, idx),
            message,
        }
    }
}

/// Modules whose whole purpose is timing/telemetry: wall-clock and
/// thread-identity reads here are the feature, not a hazard, and the
/// trace-neutrality CI diff proves they cannot perturb report bytes.
pub const TIMING_MODULES: &[&str] = &[
    "crates/runtime/src/supervise.rs",
    "crates/runtime/src/metrics.rs",
    "crates/serve/src/metrics.rs",
    "crates/serve/src/recorder.rs",
    "crates/serve/src/registry.rs",
];

/// Runs every source rule over `files` with per-fn `output` flags (as
/// produced by [`crate::classify::output_path`]). Findings are sorted
/// by (path, line, rule) for deterministic output.
#[must_use]
pub fn run_all(files: &[FileAst], output: &[Vec<bool>]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (file, flags) in files.iter().zip(output) {
        findings.extend(hash_order(file, flags));
        findings.extend(wall_clock(file, flags));
        findings.extend(unseeded_rng(file));
        findings.extend(float_reduce(file, flags));
        findings.extend(thread_influence(file, flags));
        findings.extend(partial_cmp_sort(file, flags));
        findings.extend(probe_twin(file));
        findings.extend(unwrap_calls(file));
    }
    findings.sort();
    findings.dedup();
    findings
}

/// Whether offset `idx` sits inside an output-path function.
fn in_output(file: &FileAst, flags: &[bool], idx: usize) -> bool {
    file.enclosing_fn(idx).is_some_and(|ni| flags[ni])
}

/// Whether offset `idx` sits inside any function at all (code outside
/// function bodies cannot execute the patterns these rules look for).
fn in_any_fn(file: &FileAst, idx: usize) -> bool {
    file.enclosing_fn(idx).is_some()
}

/// Word-boundary check around `code[at..at + len]`.
fn bounded(code: &str, at: usize, len: usize) -> bool {
    let bytes = code.as_bytes();
    let before = at == 0 || {
        let b = bytes[at - 1];
        !(b.is_ascii_alphanumeric() || b == b'_')
    };
    let after = at + len >= bytes.len() || {
        let b = bytes[at + len];
        !(b.is_ascii_alphanumeric() || b == b'_')
    };
    before && after
}

/// Every word-bounded occurrence of `needle` in `code`.
fn occurrences<'a>(code: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0usize;
    std::iter::from_fn(move || {
        while let Some(rel) = code[from..].find(needle) {
            let at = from + rel;
            from = at + needle.len();
            if bounded(code, at, needle.len()) {
                return Some(at);
            }
        }
        None
    })
}

/// End of the statement containing `from`: the first `;` or `{` at
/// paren/bracket depth zero (so closure bodies inside call arguments
/// do not end the statement), capped at 600 bytes.
fn stmt_end(code: &str, from: usize) -> usize {
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    let cap = (from + 600).min(bytes.len());
    let mut j = from;
    while j < cap {
        match bytes[j] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b';' | b'{' if depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    cap
}

/// Start of the statement containing `at`: just past the previous
/// `;`, `{`, or `}`, capped at 400 bytes back.
fn stmt_start(code: &str, at: usize) -> usize {
    let bytes = code.as_bytes();
    let floor = at.saturating_sub(400);
    let mut j = at;
    while j > floor {
        match bytes[j - 1] {
            b';' | b'{' | b'}' => return j,
            _ => j -= 1,
        }
    }
    floor
}

// ---------------------------------------------------------------- rule 1

/// Iteration entry points whose order is hash-dependent.
const ITER_PATTERNS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];

/// Chain members that make hash order unobservable: order-insensitive
/// sinks, or re-collection into an ordered container, or an explicit
/// sort before the order can escape.
const ORDER_SINKS: &[&str] = &[
    ".count()",
    ".len()",
    ".any(",
    ".all(",
    ".contains(",
    ".is_empty()",
    "collect::<BTreeMap",
    "collect::<BTreeSet",
    "collect::<std::collections::BTreeMap",
    "collect::<std::collections::BTreeSet",
    ".sort",
];

/// Rule 1: hash-ordered iteration on the output path.
fn hash_order(file: &FileAst, flags: &[bool]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let binders = hash_binders(&file.code);
    for name in &binders {
        for at in occurrences(&file.code, name).collect::<Vec<_>>() {
            if !in_output(file, flags, at) {
                continue;
            }
            let window = &file.code[at..stmt_end(&file.code, at)];
            let iterates =
                ITER_PATTERNS.iter().any(|p| window.contains(p)) || in_for_header(&file.code, at);
            if !iterates {
                continue;
            }
            // Sinks may sit on a following statement (the common
            // `let mut v: Vec<_> = m.iter().collect(); v.sort();`
            // idiom), so the sink window runs past the statement, to
            // the end of the function or 400 bytes, whichever first.
            let fn_end = file
                .enclosing_fn(at)
                .map_or(file.code.len(), |ni| file.fns[ni].body.end);
            let sink_window = &file.code[at..(at + 400).min(fn_end)];
            if ORDER_SINKS.iter().any(|s| sink_window.contains(s)) {
                continue;
            }
            findings.push(Finding::new(
                Rule::HashOrder,
                file,
                at,
                format!("hash-ordered iteration over `{name}` can reach report output"),
            ));
        }
    }
    findings
}

/// Whether the occurrence at `at` is the iterated expression of a
/// `for` loop header (`for x in &name {`): its line, up to the
/// occurrence, reads `for` then `in`.
fn in_for_header(code: &str, at: usize) -> bool {
    let line_start = code[..at].rfind('\n').map_or(0, |p| p + 1);
    let head = &code[line_start..at];
    let mut saw_for = false;
    for word in head.split_whitespace() {
        if word == "for" {
            saw_for = true;
        } else if saw_for && word == "in" {
            return true;
        }
    }
    false
}

/// Names bound to `HashMap`/`HashSet` in this file: via type
/// annotations (`name: HashMap<..>`, including through wrapper
/// generics like `Mutex<HashMap<..>>` and path prefixes), or via
/// initializers (`let name = HashMap::new()`, `..collect::<HashMap..`).
fn hash_binders(code: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for ty in ["HashMap", "HashSet"] {
        for at in occurrences(code, ty) {
            if let Some(name) = binder_for(code, at) {
                out.insert(name);
            }
        }
    }
    out
}

/// Resolves the identifier a type occurrence at `idx` is bound to, by
/// walking backwards over path segments, wrapper generics, and
/// annotation/initializer punctuation.
fn binder_for(code: &str, idx: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut j = idx;
    loop {
        // Skip whitespace backwards.
        while j > 0 && bytes[j - 1].is_ascii_whitespace() {
            j -= 1;
        }
        if j == 0 {
            return None;
        }
        match bytes[j - 1] {
            b':' if j >= 2 && bytes[j - 2] == b':' => {
                // Path segment (`std::collections::HashMap`): skip the
                // `::` and the segment before it, keep walking.
                j -= 2;
                j = skip_ident_back(bytes, j)?;
            }
            // Type annotation (`name: HashMap<..>`) or initializer
            // (`let name = HashMap::new()`): the binder sits just
            // before the `:` or `=`.
            b':' | b'=' => return ident_back(code, j - 1),
            b'<' => {
                // Wrapper generic (`Mutex<HashMap<..>>`): resolve the
                // wrapper's own binder.
                j -= 1;
                j = skip_ident_back(bytes, j)?;
            }
            _ => {
                // Fall back to a `let` at the statement head (covers
                // `let name = chain().collect::<HashMap<_, _>>()`
                // scanned from the turbofish occurrence).
                let start = stmt_start(code, idx);
                let stmt = code[start..idx].trim_start();
                let rest = stmt.strip_prefix("let ")?;
                let rest = rest.trim_start().strip_prefix("mut ").unwrap_or(rest);
                let name: String = rest
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                return (!name.is_empty()).then_some(name);
            }
        }
    }
}

/// Moves `j` back over one identifier, returning the new position
/// (`None` when no identifier precedes).
fn skip_ident_back(bytes: &[u8], mut j: usize) -> Option<usize> {
    let end = j;
    while j > 0 && (bytes[j - 1].is_ascii_alphanumeric() || bytes[j - 1] == b'_') {
        j -= 1;
    }
    (j < end).then_some(j)
}

/// The identifier ending at `end` (exclusive), skipping whitespace.
fn ident_back(code: &str, mut end: usize) -> Option<String> {
    let bytes = code.as_bytes();
    while end > 0 && bytes[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    let start = skip_ident_back(bytes, end)?;
    let name = &code[start..end];
    (!name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_digit()))
        .then(|| name.to_owned())
}

// ---------------------------------------------------------------- rule 2

/// Rule 2: wall-clock reads on the output path.
fn wall_clock(file: &FileAst, flags: &[bool]) -> Vec<Finding> {
    if TIMING_MODULES.contains(&file.path.as_str()) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for pattern in ["Instant::now", "SystemTime::now"] {
        for at in occurrences(&file.code, pattern) {
            if in_output(file, flags, at) {
                findings.push(Finding::new(
                    Rule::WallClock,
                    file,
                    at,
                    format!("`{pattern}` read on the output path"),
                ));
            }
        }
    }
    findings
}

// ---------------------------------------------------------------- rule 3

/// Rule 3: entropy-seeded randomness anywhere in shipped code.
fn unseeded_rng(file: &FileAst) -> Vec<Finding> {
    let mut findings = Vec::new();
    for pattern in [
        "thread_rng",
        "from_entropy",
        "from_os_rng",
        "OsRng",
        "getrandom",
        "rand::random",
    ] {
        for at in occurrences(&file.code, pattern) {
            if in_any_fn(file, at) {
                findings.push(Finding::new(
                    Rule::UnseededRng,
                    file,
                    at,
                    format!("`{pattern}` draws entropy the replay cannot reproduce"),
                ));
            }
        }
    }
    findings
}

// ---------------------------------------------------------------- rule 4

const PAR_PATTERNS: &[&str] = &[
    "par_iter(",
    "par_iter_mut(",
    "into_par_iter(",
    "par_bridge(",
    "par_chunks(",
    "par_chunks_mut(",
];

const REDUCE_PATTERNS: &[&str] = &[".sum()", ".sum::<f", ".product()", ".fold(", ".reduce("];

/// Rule 4: order-sensitive reductions over parallel iterators.
fn float_reduce(file: &FileAst, flags: &[bool]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for pattern in PAR_PATTERNS {
        for at in occurrences(&file.code, pattern.trim_end_matches('(')) {
            if !in_output(file, flags, at) {
                continue;
            }
            let window = &file.code[stmt_start(&file.code, at)..stmt_end(&file.code, at)];
            if let Some(reduce) = REDUCE_PATTERNS.iter().find(|r| window.contains(*r)) {
                findings.push(Finding::new(
                    Rule::FloatReduce,
                    file,
                    at,
                    format!(
                        "`{}` chained into `{}`: parallel reduction order is scheduling-dependent",
                        pattern.trim_end_matches('('),
                        reduce.trim_start_matches('.')
                    ),
                ));
            }
        }
    }
    findings
}

// ---------------------------------------------------------------- rule 5

/// Rule 5: thread identity / parallelism on the output path.
fn thread_influence(file: &FileAst, flags: &[bool]) -> Vec<Finding> {
    if TIMING_MODULES.contains(&file.path.as_str()) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for pattern in ["available_parallelism", "thread::current"] {
        for at in occurrences(&file.code, pattern.trim_start_matches("thread::")) {
            // Match both `thread::current` and `std::thread::current`;
            // plain `current` identifiers without the path are skipped.
            if pattern.starts_with("thread::") && !file.code[..at].ends_with("thread::") {
                continue;
            }
            if in_output(file, flags, at) {
                findings.push(Finding::new(
                    Rule::ThreadInfluence,
                    file,
                    at,
                    format!("`{pattern}` observed on the output path"),
                ));
            }
        }
    }
    findings
}

// ---------------------------------------------------------------- rule 6

const SORT_PATTERNS: &[&str] = &[
    "sort_by(",
    "sort_unstable_by(",
    "max_by(",
    "min_by(",
    "binary_search_by(",
];

/// Rule 6: `partial_cmp` comparators inside sorts/extrema.
fn partial_cmp_sort(file: &FileAst, flags: &[bool]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for at in occurrences(&file.code, "partial_cmp") {
        if !in_output(file, flags, at) {
            continue;
        }
        let window = &file.code[stmt_start(&file.code, at)..stmt_end(&file.code, at)];
        if let Some(sort) = SORT_PATTERNS.iter().find(|s| window.contains(*s)) {
            findings.push(Finding::new(
                Rule::PartialCmpSort,
                file,
                at,
                format!(
                    "`partial_cmp` comparator inside `{}`: NaN makes the order partial",
                    sort.trim_end_matches('(')
                ),
            ));
        }
    }
    findings
}

// ---------------------------------------------------------------- rule 7

/// Trees whose probed entry points need plain twins: the fabric models
/// (multiplier switches, distribution tree, cycle simulator, mappers)
/// and the NoC substrate, which has no probed entry point today but
/// stays policed so a future one gets its twin.
const PROBE_TWIN_TREES: &[&str] = &["crates/maeri/src/", "crates/noc/src/"];

/// Rule 7: every `pub fn NAME_probed` has a plain `fn NAME` in the same
/// file, and the two delegate (see [`twins_delegate`]).
fn probe_twin(file: &FileAst) -> Vec<Finding> {
    if !PROBE_TWIN_TREES.iter().any(|t| file.path.starts_with(t)) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for probed in file.fns.iter().filter(|f| f.public) {
        let Some(base) = probed.name.strip_suffix("_probed") else {
            continue;
        };
        let problem = match file.fns.iter().find(|f| f.name == base) {
            None => "has no plain twin",
            Some(plain) if twins_delegate(file, probed, plain) => continue,
            Some(_) => "does not delegate to or from its plain twin",
        };
        findings.push(Finding {
            path: file.path.clone(),
            line: probed.line,
            rule: Rule::ProbeTwin,
            message: format!("probed entry point `{}` {problem} `fn {base}`", probed.name),
        });
    }
    findings
}

/// Whether a probed/plain pair delegates: one calls the other, or both
/// call the same inner pair (`multicast_cycles` → `delivery_cycles`,
/// `multicast_cycles_probed` → `delivery_cycles_probed`), which keeps
/// them in step one level down.
fn twins_delegate(file: &FileAst, probed: &FnItem, plain: &FnItem) -> bool {
    let probed_calls = called_names(&file.code[probed.body.clone()]);
    let plain_calls = called_names(&file.code[plain.body.clone()]);
    probed_calls.contains(&plain.name)
        || plain_calls.contains(&probed.name)
        || probed_calls
            .iter()
            .filter_map(|call| call.strip_suffix("_probed"))
            .any(|inner| plain_calls.contains(inner))
}

// ---------------------------------------------------------------- rule 8

/// Rule 8: panicking `.unwrap()` / `.expect(` calls anywhere in shipped
/// code. Test regions are blanked and a call quoted in a string or
/// comment is scrubbed, so every match is a live call.
fn unwrap_calls(file: &FileAst) -> Vec<Finding> {
    let mut findings = Vec::new();
    for pattern in [".unwrap()", ".expect("] {
        for (at, _) in file.code.match_indices(pattern) {
            findings.push(Finding::new(
                Rule::Unwrap,
                file,
                at,
                format!(
                    "`{}` panics instead of returning an error",
                    pattern.trim_end_matches('(')
                ),
            ));
        }
    }
    findings
}

// ---------------------------------------------------------------- rule 9

/// Prefixes that make a backtick-quoted word a path reference: the
/// tracked trees, or an absolute path.
const DOC_PATH_PREFIXES: &[&str] = &[
    "crates/",
    "examples/",
    "compat/",
    "src/",
    "tests/",
    ".github/",
    "/",
];

/// The path candidates quoted in a markdown document, each with the
/// byte offset of its backtick span: the first whitespace-separated
/// word of the span, when it starts with a path prefix. Globs are
/// skipped; a trailing `/` or punctuation is trimmed.
fn doc_path_candidates(content: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut offset = 0;
    for (i, span) in content.split('`').enumerate() {
        let at = offset;
        offset += span.len() + 1;
        if i % 2 == 0 {
            continue; // outside backticks
        }
        let Some(word) = span.split_whitespace().next() else {
            continue;
        };
        let token = word.trim_end_matches(['/', '.', ',', ':', ';', ')']);
        if token.is_empty() || token.contains('*') {
            continue;
        }
        if DOC_PATH_PREFIXES.iter().any(|p| token.starts_with(p)) {
            out.push((at, token));
        }
    }
    out
}

/// Rule 9: backtick-quoted paths in the top-level doc `doc` must exist.
/// `exists` answers for repo-relative and absolute candidates alike, so
/// the rule stays a pure function for tests. Each dangling path is
/// flagged once, at its first mention.
#[must_use]
pub fn doc_paths(doc: &str, content: &str, exists: &dyn Fn(&str) -> bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut flagged = BTreeSet::new();
    for (at, candidate) in doc_path_candidates(content) {
        if !exists(candidate) && flagged.insert(candidate) {
            findings.push(Finding {
                path: doc.to_owned(),
                line: line_of(content, at),
                rule: Rule::DocPath,
                message: format!("references `{candidate}`, which does not exist in the tree"),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::output_path;
    use crate::suppress;

    /// Parses a single file at `path` and runs the whole catalog over
    /// it.
    fn findings_at(path: &str, source: &str) -> Vec<Finding> {
        let files = vec![FileAst::parse(path, source)];
        let flags = output_path(&files);
        run_all(&files, &flags)
    }

    /// [`findings_at`] for an output-path file (seeded via a reports/
    /// path).
    fn findings_for(source: &str) -> Vec<Finding> {
        findings_at("crates/bench/src/reports/fixture.rs", source)
    }

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn hash_order_flags_output_reaching_iteration() {
        let bad = "pub fn run() {\n    let mut m: HashMap<String, u64> = HashMap::new();\n    for (k, v) in &m {\n        emit(k, v);\n    }\n}\n";
        let found = findings_for(bad);
        assert_eq!(rules_of(&found), [Rule::HashOrder]);
        assert_eq!(found[0].line, 3);
        assert!(found[0].message.contains("`m`"));
    }

    #[test]
    fn hash_order_clean_when_sorted_or_btree() {
        let good = "pub fn run() {\n    let m: HashMap<String, u64> = build();\n    let mut pairs: Vec<_> = m.iter().collect::<Vec<_>>();\n    pairs.sort();\n    let b: BTreeMap<String, u64> = m.clone().into_iter().collect::<BTreeMap<_, _>>();\n    let n = m.keys().count();\n    emit(pairs, b, n);\n}\n";
        assert_eq!(findings_for(good), []);
    }

    #[test]
    fn hash_order_flags_method_chain_through_guards() {
        let bad = "pub fn run(&self) {\n    let rows: Vec<_> = self.cells.lock().unwrap().values().cloned().collect();\n    emit(rows);\n}\nstruct S { cells: Mutex<HashMap<u64, Row>> }\n";
        assert_eq!(
            rules_of(&findings_for(bad)),
            [Rule::HashOrder, Rule::Unwrap]
        );
    }

    #[test]
    fn hash_order_ignores_keyed_access_and_test_code() {
        let good = "pub fn run(m: &HashMap<String, u64>) {\n    let v = m.get(\"k\");\n    if m.contains_key(\"k\") { emit(v); }\n}\n#[cfg(test)]\nmod tests {\n    fn t(m: HashMap<u8, u8>) { for x in &m { sink(x); } }\n}\n";
        assert_eq!(findings_for(good), []);
    }

    #[test]
    fn wall_clock_flags_output_path_reads() {
        let bad = "pub fn run() {\n    let t = Instant::now();\n    emit(t);\n}\n";
        let found = findings_for(bad);
        assert_eq!(rules_of(&found), [Rule::WallClock]);
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn wall_clock_allows_timing_modules_and_unreached_fns() {
        let timing = vec![FileAst::parse(
            "crates/runtime/src/metrics.rs",
            "pub fn run() { let t = Instant::now(); emit(t); }",
        )];
        let flags = output_path(&timing);
        assert_eq!(run_all(&timing, &flags), []);

        // An unreached fn in a non-seed file never fires the rule.
        let files = vec![FileAst::parse(
            "crates/telemetry/src/span.rs",
            "pub fn stamp() { let t = SystemTime::now(); store(t); }",
        )];
        let flags = output_path(&files);
        assert_eq!(run_all(&files, &flags), []);
    }

    #[test]
    fn unseeded_rng_flags_everywhere_even_off_path() {
        let bad = vec![FileAst::parse(
            "crates/telemetry/src/span.rs",
            "fn jitter() { let r = thread_rng(); use_it(r); }",
        )];
        let flags = output_path(&bad);
        let found = run_all(&bad, &flags);
        assert_eq!(rules_of(&found), [Rule::UnseededRng]);
    }

    #[test]
    fn unseeded_rng_clean_for_seeded_construction() {
        let good = "pub fn run() {\n    let mut rng = SmallRng::seed_from_u64(42);\n    emit(rng.next_u64());\n}\n";
        assert_eq!(findings_for(good), []);
    }

    #[test]
    fn float_reduce_flags_parallel_sum() {
        let bad = "pub fn run(xs: &[f64]) {\n    let total: f64 = xs.par_iter().map(|x| x * x).sum();\n    emit(total);\n}\n";
        let found = findings_for(bad);
        assert_eq!(rules_of(&found), [Rule::FloatReduce]);
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn float_reduce_clean_for_sequential_sum_and_par_map() {
        let good = "pub fn run(xs: &[f64]) {\n    let total: f64 = xs.iter().map(|x| x * x).sum();\n    let ys: Vec<f64> = xs.par_iter().map(|x| x + 1.0).collect();\n    emit(total, ys);\n}\n";
        assert_eq!(findings_for(good), []);
    }

    #[test]
    fn thread_influence_flags_output_path_observation() {
        let bad = "pub fn run() {\n    let n = std::thread::available_parallelism().map_or(1, |v| v.get());\n    emit(n);\n}\n";
        let found = findings_for(bad);
        assert_eq!(rules_of(&found), [Rule::ThreadInfluence]);
    }

    #[test]
    fn thread_influence_clean_off_path_and_for_plain_current() {
        let files = vec![FileAst::parse(
            "crates/runtime/src/pool.rs",
            "fn size_pool() { let n = available_parallelism(); spawn(n); }\npub fn current(x: u8) -> u8 { x }\n",
        )];
        let flags = output_path(&files);
        assert_eq!(run_all(&files, &flags), []);
    }

    #[test]
    fn partial_cmp_sort_flags_non_total_comparator() {
        let bad = "pub fn run(mut xs: Vec<f64>) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n    emit(xs);\n}\n";
        let found = findings_for(bad);
        assert_eq!(rules_of(&found), [Rule::PartialCmpSort, Rule::Unwrap]);
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn partial_cmp_sort_clean_for_total_cmp_and_bare_partial_cmp() {
        let good = "pub fn run(mut xs: Vec<f64>, a: f64, b: f64) {\n    xs.sort_by(|p, q| p.total_cmp(q));\n    let ord = a.partial_cmp(&b);\n    emit(xs, ord);\n}\n";
        assert_eq!(findings_for(good), []);
    }

    const FABRIC: &str = "crates/maeri/src/switch.rs";

    #[test]
    fn probe_twin_flags_a_missing_plain_twin() {
        let found = findings_at(FABRIC, "pub fn step_probed(sink: &mut S) -> u8 { 0 }");
        assert_eq!(rules_of(&found), [Rule::ProbeTwin]);
        assert!(found[0].message.contains("no plain twin `fn step`"));
    }

    #[test]
    fn probe_twin_flags_twins_that_do_not_delegate() {
        // Both exist but each reimplements the logic independently.
        let src = "pub fn step() -> u8 { compute() }\n\
                   pub fn step_probed(sink: &mut S) -> u8 { compute_and_emit(sink) }\n";
        let found = findings_at(FABRIC, src);
        assert_eq!(rules_of(&found), [Rule::ProbeTwin]);
        assert_eq!(found[0].line, 2);
        assert!(found[0].message.contains("does not delegate"));
    }

    #[test]
    fn probe_twin_clean_when_either_twin_delegates() {
        // Probed delegates to plain.
        let a = "pub fn step() -> u8 { compute() }\n\
                 pub fn step_probed(sink: &mut S) -> u8 { let v = self.step(); sink.emit(); v }";
        assert_eq!(findings_at(FABRIC, a), []);
        // Plain delegates to probed.
        let b = "pub fn run() -> u8 { run_probed(&mut NullSink) }\n\
                 pub fn run_probed<S>(sink: &mut S) -> u8 { 0 }";
        assert_eq!(findings_at(FABRIC, b), []);
    }

    #[test]
    fn probe_twin_clean_for_parallel_delegation_to_an_inner_pair() {
        let src = "pub fn delivery() -> u8 { compute() }\n\
                   pub fn delivery_probed<S>(sink: &mut S) -> u8 { let v = self.delivery(); v }\n\
                   pub fn multicast() -> u8 { self.delivery() }\n\
                   pub fn multicast_probed<S>(sink: &mut S) -> u8 { self.delivery_probed(sink) }";
        assert_eq!(findings_at("crates/maeri/src/dist.rs", src), []);
    }

    #[test]
    fn probe_twin_reads_past_braces_in_strings() {
        // A raw-text brace matcher counts the `{` in the string, never
        // finds the probed body's end, and misses the delegating call.
        let src = "pub fn step() -> u8 { compute() }\n\
                   pub fn step_probed(sink: &mut S) -> u8 { sink.note(\"{ open\"); self.step() }\n";
        assert_eq!(findings_at(FABRIC, src), []);
    }

    #[test]
    fn probe_twin_skips_private_probed_fns_and_other_trees() {
        let private = "fn gate_folded_probed(sink: &mut S) -> u8 { 0 }";
        assert_eq!(findings_at(FABRIC, private), []);
        let public = "pub fn step_probed(sink: &mut S) -> u8 { 0 }";
        assert_eq!(findings_at("crates/telemetry/src/lib.rs", public), []);
    }

    #[test]
    fn unwrap_flags_calls_in_any_shipped_file() {
        // An off-path file: the rule ignores classification.
        let src =
            "pub fn f(x: Option<u8>) -> u8 {\n    g().expect(\"invariant\");\n    x.unwrap()\n}\n";
        let found = findings_at("crates/foo/src/lib.rs", src);
        assert_eq!(rules_of(&found), [Rule::Unwrap, Rule::Unwrap]);
        assert_eq!((found[0].line, found[1].line), (2, 3));
    }

    #[test]
    fn unwrap_ignores_test_code_comments_and_strings() {
        let src = "// a comment mentioning .unwrap() is fine\n\
                   /* so is .expect(\"x\") in a block comment */\n\
                   pub fn f() -> &'static str { \"call .unwrap() later\" }\n\
                   #[cfg(test)]\n\
                   mod tests { fn t() { f().unwrap(); } }\n";
        assert_eq!(findings_at("crates/foo/src/lib.rs", src), []);
    }

    #[test]
    fn unwrap_after_a_doc_comment_quoting_cfg_test_is_flagged() {
        // A raw scan that cuts the file at the first `#[cfg(test)]`
        // text stops reading at this doc comment.
        let src = "//! Tests live under `#[cfg(test)]`.\n\
                   pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let found = findings_at("crates/foo/src/lib.rs", src);
        assert_eq!(rules_of(&found), [Rule::Unwrap]);
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn unwrap_suppressions_are_per_file_and_go_stale() {
        let sup = suppress::parse("unwrap crates/foo/src/lib.rs a poisoned lock is a bug\n")
            .expect("well-formed line");
        let covered = findings_at("crates/foo/src/lib.rs", "pub fn f() { m.lock().unwrap(); }");
        let other = findings_at("crates/bar/src/lib.rs", "pub fn g() { m.lock().unwrap(); }");
        let (kept, silenced, stale) = suppress::apply([covered, other].concat(), &sup);
        assert_eq!(silenced.len(), 1);
        assert_eq!(rules_of(&kept), [Rule::Unwrap]);
        assert_eq!(kept[0].path, "crates/bar/src/lib.rs");
        assert_eq!(stale, []);
        // Once the file stops calling it, the line is stale.
        let (_, _, stale) =
            suppress::apply(findings_at("crates/foo/src/lib.rs", "fn f() {}"), &sup);
        assert_eq!(stale.len(), 1);
    }

    #[test]
    fn doc_path_flags_each_dangling_path_once() {
        let doc = "See `crates/gone/src/lib.rs`, and again\n\
                   `crates/gone/src/lib.rs` and `/nonexistent/dir/`; globs\n\
                   `crates/*/src` and commands `examples/ok.rs --flag x` are\n\
                   fine, as is the trailing slash in `crates/ok/tests/`.";
        let exists = |p: &str| p.starts_with("crates/ok") || p == "examples/ok.rs";
        let found = doc_paths("DESIGN.md", doc, &exists);
        assert_eq!(rules_of(&found), [Rule::DocPath, Rule::DocPath]);
        assert_eq!((found[0].path.as_str(), found[0].line), ("DESIGN.md", 1));
        assert!(found[0].message.contains("`crates/gone/src/lib.rs`"));
        assert_eq!(found[1].line, 2);
        assert!(found[1].message.contains("`/nonexistent/dir`"));
    }

    #[test]
    fn doc_path_clean_when_paths_exist() {
        let doc = "Built from `src/lib.rs`; CI is `.github/workflows/ci.yml`.";
        let exists = |p: &str| p == "src/lib.rs" || p == ".github/workflows/ci.yml";
        assert_eq!(doc_paths("README.md", doc, &exists), []);
    }

    #[test]
    fn findings_sort_deterministically() {
        let bad = "pub fn run() {\n    let t = Instant::now();\n    let r = thread_rng();\n    emit(t, r);\n}\n";
        let found = findings_for(bad);
        assert_eq!(rules_of(&found), [Rule::WallClock, Rule::UnseededRng]);
        assert!(found[0].line < found[1].line);
    }

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
            assert!(!rule.hint().is_empty());
        }
        assert_eq!(Rule::from_name("nope"), None);
    }
}
