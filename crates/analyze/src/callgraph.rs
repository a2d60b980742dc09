//! Workspace call graph on the lexical machinery.
//!
//! [`function_defs`] lifts each file's
//! token stream into [`FnDef`]s — name, signature facts, cleaned body
//! text and the callee names that appear inside it — and [`CallGraph`]
//! aggregates them workspace-wide with a conservative name resolver:
//! a call resolves to a definition only when the name is unambiguous
//! (same file, else same crate, else unique in the workspace), and an
//! ambiguous or unknown name resolves to *nothing*, so interprocedural
//! passes degrade to their old per-function behaviour instead of
//! guessing. Test-span functions never enter the graph: a test helper
//! must not satisfy resolution for library code.

use std::collections::BTreeMap;

use fcdpm_lint::Scan;

use crate::syntax;

/// Names that precede a `(` without being calls.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "else", "while", "for", "match", "loop", "return", "in", "move", "fn", "let", "as",
    "impl", "where",
];

/// One function definition (free function or `impl` method).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// The declared name.
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// Whether the signature declares a return type (`->`).
    pub has_return: bool,
    /// The cleaned body text (comments/strings already blanked).
    pub body: String,
    /// Callee names appearing in the body, sorted and deduplicated.
    pub calls: Vec<String>,
}

impl FnDef {
    /// Stable key: `<file>::<name>#<ordinal>` where the ordinal counts
    /// same-named functions earlier in the same file (two `impl` blocks
    /// can both define a `name` method).
    #[must_use]
    pub fn key(&self, ordinal: usize) -> String {
        format!("{}::{}#{}", self.file, self.name, ordinal)
    }
}

/// The crate a workspace-relative path belongs to (`crates/<k>/src/..`),
/// or the root pseudo-crate for `src/..`.
fn crate_of(rel_path: &str) -> &str {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("fcdpm")
}

/// Callee names in `text`: every identifier immediately followed by
/// `(`, minus keywords, macro invocations (`name!(`) and the `fn`
/// definition headers themselves. Sorted and deduplicated — the graph
/// cares about the callee *set*, not the call count.
#[must_use]
pub fn call_names(text: &str) -> Vec<String> {
    let mut out: Vec<String> = call_sites(text).into_iter().map(|(_, name)| name).collect();
    out.sort();
    out.dedup();
    out
}

/// Like [`call_names`], but preserving each call's byte offset (for
/// line attribution inside a segment).
#[must_use]
pub fn call_sites(text: &str) -> Vec<(usize, String)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'(' || i == 0 {
            continue;
        }
        let mut j = i;
        while j > 0 && syntax::is_ident_char(bytes[j - 1] as char) {
            j -= 1;
        }
        if j == i || bytes[j].is_ascii_digit() {
            continue;
        }
        let name = &text[j..i];
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // `format!(..)` never reaches here (the `!` breaks the ident
        // run), but `fn name(` does: skip definition headers.
        let before = text[..j].trim_end();
        if before.ends_with("fn")
            && !before[..before.len() - 2]
                .chars()
                .next_back()
                .is_some_and(syntax::is_ident_char)
        {
            continue;
        }
        out.push((j, name.to_owned()));
    }
    out
}

/// Extracts every non-test function definition from one scanned file.
#[must_use]
pub fn function_defs(rel_path: &str, scan: &Scan) -> Vec<FnDef> {
    let cleaned = &scan.cleaned;
    let mut out = Vec::new();
    for (fn_off, body) in syntax::function_bodies(cleaned) {
        if scan.is_test_line(scan.line_of(fn_off)) {
            continue;
        }
        let name = syntax::ident_after(cleaned, fn_off + "fn".len());
        if name.is_empty() {
            continue;
        }
        let signature = &cleaned[fn_off..body.start];
        let body_text = &cleaned[body.clone()];
        out.push(FnDef {
            file: rel_path.to_owned(),
            name: name.to_owned(),
            line: scan.line_of(fn_off),
            has_return: signature.contains("->"),
            body: body_text.to_owned(),
            calls: call_names(body_text),
        });
    }
    out
}

/// The aggregated workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every definition, in file-then-source order.
    pub defs: Vec<FnDef>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph from per-file definition lists.
    #[must_use]
    pub fn from_defs(defs: Vec<FnDef>) -> Self {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, def) in defs.iter().enumerate() {
            by_name.entry(def.name.clone()).or_default().push(i);
        }
        Self { defs, by_name }
    }

    /// The stable key of definition `index` (see [`FnDef::key`]).
    #[must_use]
    pub fn key_of(&self, index: usize) -> String {
        let def = &self.defs[index];
        let ordinal = self.defs[..index]
            .iter()
            .filter(|d| d.file == def.file && d.name == def.name)
            .count();
        def.key(ordinal)
    }

    /// Resolves a call to `name` made from `caller_file`: unique match
    /// in the same file, else unique match in the same crate, else
    /// unique match workspace-wide; ambiguity resolves to `None`.
    #[must_use]
    pub fn resolve(&self, caller_file: &str, name: &str) -> Option<usize> {
        let candidates = self.by_name.get(name)?;
        let pick = |matching: Vec<usize>| match matching.as_slice() {
            [only] => Some(*only),
            _ => None,
        };
        let same_file: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| self.defs[i].file == caller_file)
            .collect();
        if !same_file.is_empty() {
            return pick(same_file);
        }
        let krate = crate_of(caller_file);
        let same_crate: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| crate_of(&self.defs[i].file) == krate)
            .collect();
        if !same_crate.is_empty() {
            return pick(same_crate);
        }
        pick(candidates.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defs_of(rel: &str, src: &str) -> Vec<FnDef> {
        function_defs(rel, &Scan::new(src))
    }

    #[test]
    fn definitions_carry_names_signatures_and_calls() {
        let src = "fn stamp() -> u64 { pack(now()) }\nfn log(x: u64) { eprintln!(\"{x}\"); }\n";
        let defs = defs_of("crates/a/src/lib.rs", src);
        assert_eq!(defs.len(), 2);
        assert_eq!(defs[0].name, "stamp");
        assert!(defs[0].has_return);
        assert_eq!(defs[0].calls, vec!["now".to_owned(), "pack".to_owned()]);
        assert_eq!(defs[1].name, "log");
        assert!(!defs[1].has_return);
    }

    #[test]
    fn impl_methods_and_macros_are_handled() {
        let src = "impl W {\n    fn helper(&self) -> u64 { self.inner() }\n}\n";
        let defs = defs_of("crates/a/src/lib.rs", src);
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].name, "helper");
        assert_eq!(defs[0].calls, vec!["inner".to_owned()]);
        // `format!(` is a macro, `if (` a keyword: neither is a call.
        assert!(call_names("format!(\"x\") ; if (a) {}").is_empty());
    }

    #[test]
    fn test_span_functions_stay_out_of_the_graph() {
        let src = "#[cfg(test)]\nmod tests {\n    fn helper() -> u64 { 1 }\n}\n";
        assert!(defs_of("crates/a/src/lib.rs", src).is_empty());
    }

    #[test]
    fn resolution_prefers_file_then_crate_and_refuses_ambiguity() {
        let mk = |file: &str, name: &str| FnDef {
            file: file.to_owned(),
            name: name.to_owned(),
            line: 1,
            has_return: true,
            body: String::new(),
            calls: Vec::new(),
        };
        let graph = CallGraph::from_defs(vec![
            mk("crates/a/src/lib.rs", "helper"),
            mk("crates/a/src/util.rs", "helper"),
            mk("crates/b/src/lib.rs", "helper"),
            mk("crates/b/src/lib.rs", "unique"),
        ]);
        // Same file wins outright.
        assert_eq!(graph.resolve("crates/a/src/lib.rs", "helper"), Some(0));
        // Two same-crate candidates from a third file: ambiguous.
        assert_eq!(graph.resolve("crates/a/src/other.rs", "helper"), None);
        // Unique in the caller's crate.
        assert_eq!(graph.resolve("crates/b/src/other.rs", "helper"), Some(2));
        // Unique workspace-wide from anywhere.
        assert_eq!(graph.resolve("crates/c/src/lib.rs", "unique"), Some(3));
        assert_eq!(graph.resolve("crates/c/src/lib.rs", "missing"), None);
    }
}
