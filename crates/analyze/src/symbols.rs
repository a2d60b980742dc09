//! Item-level structure and the cross-crate symbol/module graph.
//!
//! The lint layer sees one file at a time; this module lifts the token
//! stream into items (`fn`/`struct`/`enum`/`trait`/`const`/`static`/
//! `type`/`mod`) and `use` edges, then aggregates per-crate so rules can
//! reason about the workspace as a graph. The first consumer is the
//! `layering` rule: every `use fcdpm_*::` edge must match the Cargo
//! dependency DAG, so an accidental upward import (e.g. a physics crate
//! reaching into the runner) is caught even before `cargo` rejects it —
//! and *re-exports* that would launder such an edge are visible because
//! `pub use` edges are tracked distinctly.

use std::collections::{BTreeMap, BTreeSet};

use fcdpm_lint::scan::token_occurrences;
use fcdpm_lint::{Finding, Scan};

use crate::AnalyzeRule;

/// What kind of item a declaration introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ItemKind {
    /// `fn` (including methods inside `impl` blocks).
    Fn,
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `trait`.
    Trait,
    /// `const`.
    Const,
    /// `static`.
    Static,
    /// `type` alias.
    TypeAlias,
    /// `mod` declaration or inline module.
    Mod,
}

/// One declared item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// The declaration kind.
    pub kind: ItemKind,
    /// The declared name.
    pub name: String,
    /// 1-indexed line of the declaration.
    pub line: usize,
    /// Whether the declaration carries any `pub` visibility.
    pub is_pub: bool,
}

/// One `use` edge out of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseEdge {
    /// First path segment (`fcdpm_units`, `crate`, `std`, ...).
    pub target: String,
    /// 1-indexed line of the `use`.
    pub line: usize,
    /// Whether this is a `pub use` re-export.
    pub is_pub: bool,
}

/// The items and use edges of one source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSymbols {
    /// Workspace-relative path.
    pub path: String,
    /// Owning crate (`None` for paths outside crate `src/` trees).
    pub krate: Option<String>,
    /// Declared items in file order (test-span items excluded).
    pub items: Vec<Item>,
    /// `use` edges in file order (test-span uses excluded).
    pub uses: Vec<UseEdge>,
}

/// The per-crate aggregation of every scanned file.
#[derive(Debug, Default)]
pub struct SymbolGraph {
    /// Per-file symbols, in scan order (sorted by path upstream).
    pub files: Vec<FileSymbols>,
}

impl SymbolGraph {
    /// Adds one scanned file to the graph.
    pub fn add_file(&mut self, rel_path: &str, scan: &Scan) {
        self.files.push(file_symbols(rel_path, scan));
    }

    /// The workspace crates each crate imports (`fcdpm_x` edges only,
    /// with the `fcdpm_` prefix stripped).
    #[must_use]
    pub fn crate_deps(&self) -> BTreeMap<String, BTreeSet<String>> {
        let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for file in &self.files {
            let Some(krate) = &file.krate else { continue };
            let entry = deps.entry(krate.clone()).or_default();
            for edge in &file.uses {
                if let Some(dep) = edge.target.strip_prefix("fcdpm_") {
                    entry.insert(dep.replace('_', "-"));
                }
            }
        }
        deps
    }

    /// Public items per crate, for cross-crate symbol lookups.
    #[must_use]
    pub fn public_items(&self) -> BTreeMap<String, Vec<&Item>> {
        let mut out: BTreeMap<String, Vec<&Item>> = BTreeMap::new();
        for file in &self.files {
            let Some(krate) = &file.krate else { continue };
            out.entry(krate.clone())
                .or_default()
                .extend(file.items.iter().filter(|i| i.is_pub));
        }
        out
    }
}

/// The crate each library source path belongs to (mirrors the lint's
/// scoping: `crates/<name>/src/**` → `<name>`, root `src/**` → `fcdpm`).
#[must_use]
pub fn crate_of(rel_path: &str) -> Option<String> {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        let (name, tail) = rest.split_once('/')?;
        tail.starts_with("src/").then(|| name.to_owned())
    } else if rel_path.starts_with("src/") {
        Some("fcdpm".to_owned())
    } else {
        None
    }
}

/// Extracts the items and use edges of one file.
#[must_use]
pub fn file_symbols(rel_path: &str, scan: &Scan) -> FileSymbols {
    let mut items = Vec::new();
    let mut uses = Vec::new();
    let mut offset = 0usize;
    for raw_line in scan.cleaned.split_inclusive('\n') {
        let line_no = scan.line_of(offset);
        offset += raw_line.len();
        if scan.is_test_line(line_no) {
            continue;
        }
        let trimmed = raw_line.trim_start();
        let (is_pub, rest) = strip_visibility(trimmed);
        if let Some(tail) = rest.strip_prefix("use ") {
            let target: String = tail
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !target.is_empty() {
                uses.push(UseEdge {
                    target,
                    line: line_no,
                    is_pub,
                });
            }
            continue;
        }
        if let Some((kind, tail)) = item_keyword(rest) {
            let name: String = tail
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() && name != "_" {
                items.push(Item {
                    kind,
                    name,
                    line: line_no,
                    is_pub,
                });
            }
        }
    }
    FileSymbols {
        path: rel_path.to_owned(),
        krate: crate_of(rel_path),
        items,
        uses,
    }
}

/// Strips a leading `pub` / `pub(...)` qualifier.
fn strip_visibility(line: &str) -> (bool, &str) {
    if let Some(rest) = line.strip_prefix("pub") {
        if let Some(tail) = rest.strip_prefix('(') {
            if let Some(close) = tail.find(')') {
                return (true, tail[close + 1..].trim_start());
            }
        }
        if rest.starts_with(char::is_whitespace) {
            return (true, rest.trim_start());
        }
    }
    (false, line)
}

/// Matches a declaration keyword at the start of a (visibility-stripped)
/// line. `const fn` is a function, not a constant.
fn item_keyword(line: &str) -> Option<(ItemKind, &str)> {
    for prefix in ["const fn ", "async fn ", "fn "] {
        if let Some(tail) = line.strip_prefix(prefix) {
            return Some((ItemKind::Fn, tail));
        }
    }
    let table: [(&str, ItemKind); 6] = [
        ("struct ", ItemKind::Struct),
        ("enum ", ItemKind::Enum),
        ("trait ", ItemKind::Trait),
        ("const ", ItemKind::Const),
        ("static ", ItemKind::Static),
        ("mod ", ItemKind::Mod),
    ];
    for (prefix, kind) in table {
        if let Some(tail) = line.strip_prefix(prefix) {
            return Some((kind, tail));
        }
    }
    // `type` aliases, but not `type` inside a where-clause/assoc position
    // (heuristic: declarations start the line after visibility).
    line.strip_prefix("type ")
        .map(|tail| (ItemKind::TypeAlias, tail))
}

/// The Cargo dependency DAG, mirrored so `use` edges can be checked
/// without parsing Cargo.toml at analysis time. A crate may import
/// itself, `std`/`core`/`alloc`, external shims and anything listed
/// here; everything else `fcdpm_*` is a layering violation.
const ALLOWED_DEPS: [(&str, &[&str]); 18] = [
    ("units", &[]),
    ("lint", &[]),
    ("analyze", &["lint", "runner"]),
    ("device", &["units"]),
    ("fuelcell", &["units"]),
    ("storage", &["units"]),
    ("workload", &["units", "device"]),
    ("predict", &["units", "workload"]),
    ("faults", &["fuelcell", "units"]),
    ("dvs", &["units", "fuelcell", "workload"]),
    (
        "core",
        &[
            "units", "device", "fuelcell", "predict", "storage", "workload",
        ],
    ),
    (
        "sim",
        &[
            "core", "device", "faults", "fuelcell", "predict", "storage", "units", "workload",
        ],
    ),
    (
        "runner",
        &[
            "core", "device", "dvs", "faults", "fuelcell", "predict", "sim", "storage", "units",
            "workload",
        ],
    ),
    (
        "grid",
        &[
            "core", "device", "faults", "fuelcell", "predict", "runner", "sim", "storage", "units",
            "workload",
        ],
    ),
    (
        "bench",
        &[
            "core", "device", "faults", "fuelcell", "grid", "predict", "runner", "sim", "storage",
            "units", "workload",
        ],
    ),
    (
        "cli",
        &[
            "analyze", "bench", "core", "device", "faults", "fuelcell", "grid", "lint", "predict",
            "runner", "sim", "storage", "units", "workload",
        ],
    ),
    (
        "experiments",
        &[
            "core", "device", "dvs", "fuelcell", "predict", "runner", "sim", "storage", "units",
            "workload",
        ],
    ),
    (
        "fcdpm",
        &[
            "core", "device", "dvs", "faults", "fuelcell", "predict", "sim", "storage", "units",
            "workload",
        ],
    ),
];

/// Checks every `use fcdpm_*` edge against `ALLOWED_DEPS`.
#[must_use]
pub fn check_layering(graph: &SymbolGraph) -> Vec<Finding> {
    let allowed: BTreeMap<&str, &[&str]> = ALLOWED_DEPS.iter().copied().collect();
    let mut findings = Vec::new();
    for file in &graph.files {
        let Some(krate) = &file.krate else { continue };
        for edge in &file.uses {
            let Some(dep) = edge.target.strip_prefix("fcdpm_") else {
                continue;
            };
            let dep = dep.replace('_', "-");
            // A bin target importing its own package's lib is always a
            // legal edge, whatever the DAG table says.
            if dep == *krate {
                continue;
            }
            let ok = match allowed.get(krate.as_str()) {
                Some(deps) => deps.contains(&dep.as_str()),
                // Unknown crates (new additions) are not judged until
                // they are added to the table.
                None => true,
            };
            if !ok {
                findings.push(Finding {
                    rule: AnalyzeRule::Layering.id(),
                    path: file.path.clone(),
                    line: edge.line,
                    message: format!(
                        "crate `{krate}` must not import `fcdpm_{}`: the workspace layering (Cargo DAG) has no such edge",
                        dep.replace('-', "_")
                    ),
                });
            }
        }
    }
    findings
}

/// Convenience: whether `cleaned` text mentions a token at all (used by
/// callers probing for re-exported names).
#[must_use]
pub fn mentions(cleaned: &str, token: &str) -> bool {
    !token_occurrences(cleaned, token).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_items_and_uses() {
        let src = "\
use fcdpm_units::Amps;
pub use fcdpm_units::Volts;
pub(crate) const ALPHA: f64 = 0.45;
pub struct Stack;
impl Stack {
    pub fn current(&self) -> Amps { Amps::new(0.1) }
    const fn cells() -> u32 { 20 }
}
#[cfg(test)]
mod tests {
    fn hidden() {}
}
";
        let scan = Scan::new(src);
        let sym = file_symbols("crates/fuelcell/src/stack.rs", &scan);
        assert_eq!(sym.krate.as_deref(), Some("fuelcell"));
        let names: Vec<(&str, ItemKind, bool)> = sym
            .items
            .iter()
            .map(|i| (i.name.as_str(), i.kind, i.is_pub))
            .collect();
        assert!(names.contains(&("ALPHA", ItemKind::Const, true)));
        assert!(names.contains(&("Stack", ItemKind::Struct, true)));
        assert!(names.contains(&("current", ItemKind::Fn, true)));
        assert!(names.contains(&("cells", ItemKind::Fn, false)));
        assert!(
            !names.iter().any(|(n, _, _)| *n == "hidden"),
            "test-span items are excluded"
        );
        assert_eq!(sym.uses.len(), 2);
        assert!(sym.uses[1].is_pub);
        assert_eq!(sym.uses[0].target, "fcdpm_units");
    }

    #[test]
    fn layering_flags_upward_imports() {
        let mut graph = SymbolGraph::default();
        graph.add_file(
            "crates/fuelcell/src/bad.rs",
            &Scan::new("use fcdpm_runner::JobSpec;\nuse fcdpm_units::Amps;\n"),
        );
        let findings = check_layering(&graph);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
        assert!(findings[0].message.contains("fcdpm_runner"));
        assert_eq!(
            graph.crate_deps()["fuelcell"],
            ["runner".to_owned(), "units".to_owned()]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn allowed_edges_are_quiet() {
        let mut graph = SymbolGraph::default();
        graph.add_file(
            "crates/core/src/ok.rs",
            &Scan::new(
                "use fcdpm_units::Amps;\nuse fcdpm_fuelcell::LinearEfficiency;\nuse std::fmt;\n",
            ),
        );
        assert!(check_layering(&graph).is_empty());
    }
}
