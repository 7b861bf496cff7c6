//! A lightweight item-level AST over scrubbed source.
//!
//! The analyzer does not need expression trees — its rules are
//! pattern-driven — but it does need three structural facts a plain
//! line scan cannot provide: where each `fn` item's body starts and
//! ends (to attribute findings to functions and walk call edges),
//! which regions are `#[cfg(test)]`-gated (rules never fire there),
//! and accurate line numbers. [`FileAst::parse`] provides all three
//! by brace matching over [`crate::lexer::scrub`]bed text, where
//! braces inside strings and comments no longer exist.

use crate::lexer::{line_of, scrub};
use std::ops::Range;

/// One `fn` item: its name, the 1-based line of its `fn` keyword, and
/// the byte range of its body (between, not including, its braces).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's identifier.
    pub name: String,
    /// 1-based source line of the `fn` keyword.
    pub line: usize,
    /// Byte range of the body in the scrubbed text.
    pub body: Range<usize>,
    /// Whether the item is declared plain `pub` (not `pub(crate)`).
    pub public: bool,
}

/// One parsed source file: scrubbed text with test regions blanked,
/// plus its `fn` items in source order.
#[derive(Debug, Clone)]
pub struct FileAst {
    /// Repo-relative, slash-separated path.
    pub path: String,
    /// Scrubbed source with `#[cfg(test)]` regions blanked: every rule
    /// scan and call-edge walk runs over this text.
    pub code: String,
    /// Every `fn` item outside test regions, in source order.
    pub fns: Vec<FnItem>,
}

impl FileAst {
    /// Parses one file: scrub, blank test regions, extract `fn` items.
    #[must_use]
    pub fn parse(path: &str, source: &str) -> FileAst {
        let mut code = scrub(source);
        blank_test_regions(&mut code);
        let fns = find_fns(&code);
        FileAst {
            path: path.to_owned(),
            code,
            fns,
        }
    }

    /// The innermost `fn` containing byte offset `idx`, if any
    /// (nested `fn` items resolve to the deepest one).
    #[must_use]
    pub fn enclosing_fn(&self, idx: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.body.contains(&idx))
            .max_by_key(|(_, f)| f.body.start)
            .map(|(i, _)| i)
    }
}

/// Blanks every `#[cfg(test)]`-gated item (the attribute through the
/// item's closing brace, or its `;` for brace-less items), so no rule
/// and no call edge ever sees test code.
fn blank_test_regions(code: &mut String) {
    const MARKER: &str = "#[cfg(test)]";
    let mut from = 0usize;
    while let Some(rel) = code[from..].find(MARKER) {
        let start = from + rel;
        let after = start + MARKER.len();
        let end = match item_end(code, after) {
            Some(end) => end,
            None => code.len(),
        };
        // SAFETY of the replace: both texts are pure ASCII in the
        // replaced span (scrubbed structural characters).
        let blanked: String = code[start..end]
            .chars()
            .map(|c| if c == '\n' { '\n' } else { ' ' })
            .collect();
        code.replace_range(start..end, &blanked);
        from = end;
    }
}

/// End (exclusive) of the item starting after an attribute at `from`:
/// the matching close of its first `{`, or just past its first `;` if
/// that comes sooner.
fn item_end(code: &str, from: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut j = from;
    while j < bytes.len() {
        match bytes[j] {
            b';' => return Some(j + 1),
            b'{' => return matching_brace(code, j).map(|close| close + 1),
            _ => j += 1,
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    let mut j = open;
    while j < bytes.len() {
        match bytes[j] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Whether the byte before `idx` could continue an identifier (used to
/// require word boundaries around keywords).
fn boundary_before(code: &str, idx: usize) -> bool {
    idx == 0 || {
        let b = code.as_bytes()[idx - 1];
        !(b.is_ascii_alphanumeric() || b == b'_')
    }
}

/// Every `fn NAME` item with a body, in source order. Trait-method
/// declarations (`fn f();`) are skipped.
fn find_fns(code: &str) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = code[from..].find("fn ") {
        let at = from + rel;
        from = at + 3;
        if !boundary_before(code, at) {
            continue;
        }
        let name: String = code[at + 3..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue; // `fn` in an `Fn(..)` bound or similar
        }
        let sig_end = at + 3 + name.len();
        // The body opens at the first `{` before any `;` (a `;` first
        // means a bodyless declaration). `where` clauses and return
        // types contain no braces in this codebase's style.
        let Some(end) = item_end(code, sig_end) else {
            continue;
        };
        if code.as_bytes()[end - 1] == b';' {
            continue;
        }
        let Some(open) = code[sig_end..end].find('{').map(|p| sig_end + p) else {
            continue;
        };
        fns.push(FnItem {
            name,
            line: line_of(code, at),
            body: open + 1..end - 1,
            public: code[..at].trim_end().ends_with("pub"),
        });
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_items_have_names_lines_and_bodies() {
        let src = "pub fn alpha() -> u8 {\n    1\n}\n\nfn beta(x: u8) {\n    let y = x;\n}\npub(crate) fn gamma() {}\n";
        let ast = FileAst::parse("a.rs", src);
        assert_eq!(ast.fns.len(), 3);
        assert_eq!(ast.fns[0].name, "alpha");
        assert_eq!(ast.fns[0].line, 1);
        assert_eq!(ast.fns[1].name, "beta");
        assert_eq!(ast.fns[1].line, 5);
        assert!(ast.code[ast.fns[1].body.clone()].contains("let y = x;"));
        let public: Vec<bool> = ast.fns.iter().map(|f| f.public).collect();
        assert_eq!(public, [true, false, false]);
    }

    #[test]
    fn cfg_test_regions_are_blanked() {
        let src = "pub fn live() { work(); }\n#[cfg(test)]\nmod tests {\n    fn t() { thread_rng(); }\n}\n";
        let ast = FileAst::parse("a.rs", src);
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "live");
        assert!(!ast.code.contains("thread_rng"));
    }

    #[test]
    fn cfg_test_on_single_fn_is_blanked() {
        let src =
            "fn live() {}\n#[cfg(test)]\nfn helper() { Instant::now(); }\nfn also_live() {}\n";
        let ast = FileAst::parse("a.rs", src);
        let names: Vec<&str> = ast.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["live", "also_live"]);
        assert!(!ast.code.contains("Instant::now"));
    }

    #[test]
    fn trait_declarations_without_bodies_are_skipped() {
        let src =
            "trait T {\n    fn required(&self);\n    fn provided(&self) { self.required() }\n}\n";
        let ast = FileAst::parse("a.rs", src);
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "provided");
    }

    #[test]
    fn nested_fns_resolve_to_the_innermost() {
        let src = "fn outer() {\n    fn inner() { leaf(); }\n    inner();\n}\n";
        let ast = FileAst::parse("a.rs", src);
        assert_eq!(ast.fns.len(), 2);
        let leaf_at = ast.code.find("leaf").unwrap();
        let idx = ast.enclosing_fn(leaf_at).unwrap();
        assert_eq!(ast.fns[idx].name, "inner");
    }

    #[test]
    fn braces_in_strings_do_not_break_matching() {
        let src = "fn f() { let s = \"{ not a brace }\"; tail(); }\nfn g() {}\n";
        let ast = FileAst::parse("a.rs", src);
        assert_eq!(ast.fns.len(), 2);
        assert!(ast.code[ast.fns[0].body.clone()].contains("tail();"));
    }

    #[test]
    fn fn_keyword_inside_identifiers_is_ignored() {
        let src = "fn real() { spawn_fn (); }\nstruct DynFn { f: u8 }\n";
        let ast = FileAst::parse("a.rs", src);
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "real");
    }
}
