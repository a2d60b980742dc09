//! Determinism-taint dataflow: nondeterminism must not reach artifact
//! sinks un-laundered.
//!
//! The repo's byte-identical-artifact contract (shard spill, resume
//! diffs, BENCH payloads, CI double-run gates) holds only if nothing
//! scheduling- or environment-dependent flows into the serialized
//! bytes. This pass marks the classic sources — wall-clock reads,
//! thread identity, hash-order iteration, environment reads, unseeded
//! RNG, channel arrival order — follows them through `let`-bindings and
//! mutating statements inside each function body, and flags any tainted
//! value that reaches an artifact sink (a serialize/write/digest call
//! in one of the [`SINK_FILES`]) without passing through an explicit
//! launder (`sort*`, a `BTree*` collection, or the `canonical`/
//! `deterministic_json` masking idiom) first.
//!
//! The analysis is per-function-body and conservative, but no longer
//! stops at call boundaries: when a [`SummaryContext`] is supplied,
//! a call that *resolves* (see
//! [`CallGraph::resolve`](crate::callgraph::CallGraph::resolve)) to a
//! function whose summary returns nondeterminism acts as a source at
//! the call site, and a resolved call to a laundering function (one
//! whose body sorts or builds a `BTree*`) cleans the segment exactly
//! like an inline sort. Unresolvable calls contribute nothing, so
//! without a context — or on code the resolver cannot see through —
//! the pass behaves exactly like its old per-function self, and
//! everything it reports is a flow a reviewer can confirm by reading
//! the implicated bodies.

use std::collections::BTreeMap;

use fcdpm_lint::{Finding, Scan};

use crate::callgraph;
use crate::summaries::SummaryContext;
use crate::syntax;
use crate::AnalyzeRule;

/// The files whose writers feed committed or diffed artifacts: the
/// runner/grid manifest writers, the grid engine's `aggregate.json` and
/// shard spill, the BENCH payload builder, and the FNV digest folds
/// that key resume caches.
pub const SINK_FILES: [&str; 6] = [
    "crates/bench/src/harness.rs",
    "crates/grid/src/engine.rs",
    "crates/grid/src/gen.rs",
    "crates/grid/src/manifest.rs",
    "crates/runner/src/manifest.rs",
    "crates/runner/src/spec.rs",
];

/// Nondeterminism sources: `(needle, what the taint carries)`.
/// Word-delimited needles; matched against cleaned text, so strings and
/// comments never trip them.
const SOURCES: [(&str, &str); 11] = [
    ("SystemTime", "wall-clock time"),
    ("Instant", "wall-clock time"),
    ("ThreadId", "thread identity"),
    ("thread_rng", "unseeded RNG"),
    ("from_entropy", "unseeded RNG"),
    ("HashMap", "hash-order iteration"),
    ("HashSet", "hash-order iteration"),
    ("var_os", "environment read"),
    ("vars_os", "environment read"),
    ("recv", "channel arrival order"),
    ("recv_timeout", "channel arrival order"),
];

/// Sources that need substring (not word) matching because they span
/// path separators.
const PATH_SOURCES: [(&str, &str); 3] = [
    ("thread::current", "thread identity"),
    ("env::var", "environment read"),
    ("env::vars", "environment read"),
];

/// Artifact-sink call needles (substring-matched; all end in `(` so an
/// occurrence is always a call site).
const SINKS: [&str; 8] = [
    "serde_json::to_string",
    "serde_json::to_writer(",
    "to_pretty_json(",
    "deterministic_json(",
    "write_shard(",
    "fs::write(",
    "write_all(",
    "fnv1a(",
];

/// Laundering idioms: a segment containing one of these consumes the
/// taint of every variable it mentions (explicit reordering or
/// canonical masking restores determinism).
const LAUNDERS: [&str; 8] = [
    ".sort(",
    ".sort_by(",
    ".sort_by_key(",
    ".sort_unstable(",
    ".sort_unstable_by(",
    ".sort_unstable_by_key(",
    "BTreeMap",
    "BTreeSet",
];

/// `deterministic_json` masks scheduling fields before serializing, and
/// the digest fns assign through a `canonical` clone — both are
/// laundered sinks, not violations, when they appear *as the sink*.
const LAUNDERED_SINKS: [&str; 2] = ["deterministic_json(", "canonical"];

/// Does `text` contain one of the explicit laundering idioms?
pub(crate) fn is_laundering(text: &str) -> bool {
    LAUNDERS.iter().any(|l| text.contains(l))
}

/// Direct source kinds present in `segment` (word- and path-matched).
pub(crate) fn source_kinds(segment: &str) -> Vec<&'static str> {
    let mut kinds = Vec::new();
    for (needle, kind) in SOURCES {
        if !syntax::word_occurrences(segment, needle).is_empty() {
            kinds.push(kind);
        }
    }
    for (needle, kind) in PATH_SOURCES {
        if segment.contains(needle) {
            kinds.push(kind);
        }
    }
    kinds.dedup();
    kinds
}

/// The names bound by a `let` pattern span (everything between `let`
/// and `=`): each lowercase-leading identifier that is not a keyword.
/// Over-approximating binders (e.g. a primitive type ascription) only
/// widens taint, never hides it.
fn pattern_binders(pattern: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in pattern.chars().chain(" ".chars()) {
        if syntax::is_ident_char(c) {
            cur.push(c);
        } else {
            if !cur.is_empty()
                && cur
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_')
                && !matches!(cur.as_str(), "let" | "mut" | "ref" | "_")
            {
                out.push(std::mem::take(&mut cur));
            }
            cur.clear();
        }
    }
    out
}

/// Runs the pass over one file. Only [`SINK_FILES`] can produce
/// findings (that is where artifact bytes are born); other paths return
/// empty immediately, so the workspace walk stays cheap. With a
/// [`SummaryContext`], resolved helper calls contribute their
/// summarized effects (taint sources and launders across function and
/// file boundaries); with `None` the pass is purely per-function.
#[must_use]
pub fn check_file(rel_path: &str, scan: &Scan, ctx: Option<&SummaryContext>) -> Vec<Finding> {
    if !SINK_FILES.contains(&rel_path) {
        return Vec::new();
    }
    let cleaned = &scan.cleaned;
    let mut findings = Vec::new();

    for (fn_off, body) in syntax::function_bodies(cleaned) {
        if scan.is_test_line(scan.line_of(fn_off)) {
            continue;
        }
        // variable -> the taint kind it carries
        let mut tainted: BTreeMap<String, &'static str> = BTreeMap::new();

        for (seg_start, seg_range) in syntax::segments(cleaned, &body) {
            let segment = &cleaned[seg_range];

            // For `let` segments, taint is judged on the value side only
            // — a clean re-binding must not see its own binder name.
            let let_off = syntax::word_occurrences(segment, "let").first().copied();
            let value_text = match let_off {
                Some(off) => {
                    let after_let = &segment[off..];
                    after_let.find('=').map_or("", |eq| &after_let[eq + 1..])
                }
                None => segment,
            };

            // Resolved helper calls contribute their summaries: one
            // that launders cleans the segment like an inline sort; one
            // whose return carries taint is a source at the call site.
            let mut via_call: Option<(String, &'static str)> = None;
            let mut call_launders = false;
            if let Some(ctx) = ctx {
                for name in callgraph::call_names(segment) {
                    let Some((_, summary)) = ctx.resolve(rel_path, &name) else {
                        continue;
                    };
                    if summary.launders {
                        call_launders = true;
                    } else if let Some(kind) = summary.returns_taint {
                        if via_call.is_none() {
                            via_call = Some((name, kind));
                        }
                    }
                }
            }

            // What taint does this segment see? Direct sources count
            // anywhere (a `HashMap` type ascription sits left of the
            // `=`); variable references only on the value side.
            let direct = source_kinds(segment);
            let mut via_var: Option<(String, &'static str)> = None;
            for (var, kind) in &tainted {
                if !syntax::word_occurrences(value_text, var).is_empty() {
                    via_var = Some((var.clone(), kind));
                    break;
                }
            }
            let seg_taint: Option<&'static str> = direct
                .first()
                .copied()
                .or(via_var.as_ref().map(|&(_, k)| k))
                .or(via_call.as_ref().map(|&(_, k)| k));

            // Laundering consumes the taint of every variable mentioned.
            if call_launders || LAUNDERS.iter().any(|l| segment.contains(l)) {
                let cleared: Vec<String> = tainted
                    .keys()
                    .filter(|var| !syntax::word_occurrences(segment, var).is_empty())
                    .cloned()
                    .collect();
                for var in cleared {
                    tainted.remove(&var);
                }
                continue;
            }

            // Sink check: a serialize/write/digest call fed by taint.
            if let Some(kind) = seg_taint {
                if let Some((sink, sink_rel)) = SINKS
                    .iter()
                    .filter_map(|s| segment.find(s).map(|at| (*s, at)))
                    .min_by_key(|&(_, at)| at)
                {
                    let masked = LAUNDERED_SINKS.iter().any(|l| segment.contains(l));
                    if !masked {
                        let line = scan.line_of(seg_start + sink_rel);
                        if !scan.is_test_line(line) {
                            let sink_name = sink.trim_end_matches('(');
                            let message = match (&via_var, &via_call) {
                                (Some((var, _)), _) if direct.is_empty() => format!(
                                    "`{var}` carries {kind} and reaches artifact sink \
                                     `{sink_name}` without an intervening sort/canonicalize"
                                ),
                                (None, Some((callee, _))) if direct.is_empty() => format!(
                                    "`{callee}()` returns {kind} (through its body or \
                                     callees) and reaches artifact sink `{sink_name}` \
                                     without an intervening sort/canonicalize"
                                ),
                                _ => format!(
                                    "{kind} flows directly into artifact sink `{sink_name}`"
                                ),
                            };
                            findings.push(Finding {
                                rule: AnalyzeRule::DeterminismTaint.id(),
                                path: rel_path.to_owned(),
                                line,
                                message,
                            });
                        }
                    }
                }
            }

            // Propagate taint through bindings and mutations.
            let trimmed = segment.trim_start();
            if let Some(let_off) = let_off {
                let after_let = &segment[let_off..];
                let pattern_end = after_let.find('=').unwrap_or(after_let.len());
                for binder in pattern_binders(&after_let[..pattern_end]) {
                    match seg_taint {
                        // A clean re-binding clears the old taint too.
                        Some(kind) => {
                            tainted.insert(binder, kind);
                        }
                        None => {
                            tainted.remove(&binder);
                        }
                    }
                }
            } else if let Some(kind) = seg_taint {
                // `x = ...`, `x += ...`, `x.push(...)`, `x.insert(...)`:
                // a tainted right-hand side taints the mutated variable.
                let target: String = trimmed
                    .chars()
                    .take_while(|&c| syntax::is_ident_char(c))
                    .collect();
                if !target.is_empty() {
                    let rest = &trimmed[target.len()..];
                    let mutates = rest.trim_start().starts_with('=')
                        && !rest.trim_start().starts_with("==")
                        || rest.trim_start().starts_with("+=")
                        || rest.starts_with(".push(")
                        || rest.starts_with(".insert(")
                        || rest.starts_with(".extend(");
                    if mutates {
                        tainted.insert(target, kind);
                    }
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    const SINK: &str = "crates/grid/src/manifest.rs";

    fn run_on(src: &str) -> Vec<Finding> {
        check_file(SINK, &Scan::new(src), None)
    }

    fn context(files: &[(&str, &str)]) -> SummaryContext {
        let mut defs = Vec::new();
        for (rel, src) in files {
            defs.extend(callgraph::function_defs(rel, &Scan::new(src)));
        }
        SummaryContext::build(callgraph::CallGraph::from_defs(defs))
    }

    #[test]
    fn non_sink_files_are_skipped() {
        let src = "fn f() { let t = Instant::now(); fs::write(p, t); }";
        assert!(check_file("crates/sim/src/lib.rs", &Scan::new(src), None).is_empty());
    }

    #[test]
    fn helper_taint_crosses_the_call_boundary_with_a_context() {
        let helper = "fn current_stamp() -> u64 { let t = Instant::now(); pack(t) }";
        let caller = "fn write_manifest(path: &Path) {\n    let stamp = current_stamp();\n    fs::write(path, render(stamp));\n}\n";
        let scan = Scan::new(caller);
        // The per-function pass provably misses the flow...
        assert!(check_file(SINK, &scan, None).is_empty());
        // ...and catches it once summaries resolve the helper.
        let ctx = context(&[("crates/grid/src/util.rs", helper), (SINK, caller)]);
        let findings = check_file(SINK, &scan, Some(&ctx));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("wall-clock time"));
        assert!(findings[0].message.contains("stamp"));
    }

    #[test]
    fn laundering_helpers_clean_the_flow_with_a_context() {
        let helper =
            "fn arrivals(rx: &Receiver<u64>) -> Vec<u64> { rx.recv().into_iter().collect() }\n\
                      fn ordered(mut v: Vec<u64>) -> Vec<u64> { v.sort(); v }";
        let caller = "fn write_manifest(path: &Path, rx: &Receiver<u64>) {\n    let rows = arrivals(rx);\n    let rows = ordered(rows);\n    fs::write(path, render(&rows));\n}\n";
        let scan = Scan::new(caller);
        let ctx = context(&[("crates/grid/src/util.rs", helper), (SINK, caller)]);
        assert!(check_file(SINK, &scan, Some(&ctx)).is_empty());
    }

    #[test]
    fn direct_source_into_sink_is_flagged() {
        let src = "fn f() {\n    let stamp = SystemTime::now();\n    fs::write(path, format!(\"{:?}\", stamp));\n}\n";
        let findings = run_on(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("wall-clock time"));
    }

    #[test]
    fn sort_launders_the_taint() {
        let src = "fn f() {\n    let mut rows: Vec<_> = rx.iter().map(|r| r.recv()).collect();\n    rows.sort_by_key(|r| r.index);\n    fs::write(path, render(&rows));\n}\n";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn hash_order_reaching_a_digest_fold_is_flagged() {
        let src = "fn f() {\n    let index: HashMap<u64, u64> = build();\n    let key = fnv1a(pack(&index));\n}\n";
        let findings = run_on(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("hash-order iteration"));
        assert!(findings[0].message.contains("fnv1a"));
    }

    #[test]
    fn tainted_value_streamed_into_a_digest_sink_is_flagged() {
        let src = "fn digest(&self) -> u64 {\n    let stamp = Instant::now();\n    let mut hash = Fnv1a::default();\n    let _ = serde_json::to_writer(&mut hash, &stamp);\n    hash.finish()\n}\n";
        let findings = run_on(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
        assert!(findings[0].message.contains("serde_json::to_writer"));
        assert!(findings[0].message.contains("wall-clock time"));
    }

    #[test]
    fn canonical_masking_counts_as_laundered() {
        let src = "fn digest(&self) -> u64 {\n    let mut canonical = self.clone();\n    canonical.name = None;\n    fnv1a(serde_json::to_string(&canonical).unwrap_or_default().as_bytes())\n}\n";
        // `canonical` is not tainted at all here, but even a tainted
        // input through the canonical idiom must stay clean.
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn clean_rebinding_clears_old_taint() {
        let src = "fn f() {\n    let x = Instant::now();\n    let x = 5u64;\n    fs::write(path, x.to_string());\n}\n";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let t = SystemTime::now(); fs::write(p, fmt(t)); }\n}\n";
        assert!(run_on(src).is_empty());
    }
}
