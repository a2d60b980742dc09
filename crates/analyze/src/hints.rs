//! Hint-soundness pass: the `steady_current` coalescing contract.
//!
//! The simulator's segment coalescing (PR 4) integrates a whole
//! segment in closed form whenever a policy's `steady_current` hint
//! promises the decide path is segment-invariant. That promise is a
//! *contract*, not a type: a `Some(..)` hint over a decide path that
//! actually varies per chunk (reads the state of charge, mutates
//! `self`, or delegates to a stateful helper) silently corrupts the
//! closed-form integration, while a `None` hint over an invariant (or
//! plannable) decide path leaves the ~12× consultation overhead the
//! ROADMAP's universal-coalescing item exists to close.
//!
//! For every `impl FcOutputPolicy for ..` block the pass classifies the
//! `segment_current` body (reads of the `soc` parameter, `self`
//! mutation via `syntax::self_mutation`, delegation to an inner
//! policy's `.segment_current(..)`, resolved calls whose
//! [summary](crate::summaries) mutates state) and cross-checks the
//! `steady_current` override:
//!
//! * `Some(..)` hint + varying decide path → **`hint-soundness`**
//!   (error): the hint is unsound.
//! * `None` hint + invariant decide path → **`hint-coalescing`**
//!   (warning): a coalescing opportunity is being missed outright.
//! * `None` hint + decide path that varies *without* soc-gated
//!   hysteresis (no `if`/match-guard condition on `soc` feeding a
//!   `self` write) → **`hint-coalescing`** (warning): a segment-scoped
//!   plan could still coalesce it — the enumerable worklist for the
//!   ROADMAP item.
//! * A `begin_segment` override → clean regardless of the hint: the
//!   impl ships a segment-scoped plan, which is the coalescing
//!   mechanism the warnings above ask for (the simulator integrates
//!   plans in closed form whether or not `steady_current` also hints).
//! * `None` hint + soc-gated hysteresis (ASAP's recharge latch), or a
//!   hint that delegates to an inner policy's `steady_current` →
//!   clean: the hint honestly reflects a genuinely chunk-coupled (or
//!   forwarded) decide path.

use std::ops::Range;

use fcdpm_lint::{Finding, Scan};

use crate::callgraph;
use crate::summaries::SummaryContext;
use crate::syntax;
use crate::AnalyzeRule;

/// What a `steady_current` override promises.
enum Hint {
    /// Forwards to another policy's `steady_current` — judged there.
    Delegating,
    /// Returns `Some(..)` on at least one path.
    Some,
    /// Returns `None` (explicitly, or via the trait default).
    None,
}

/// One `impl FcOutputPolicy for ..` block's relevant methods.
struct PolicyImpl {
    type_name: String,
    impl_line: usize,
    steady: Option<(usize, Range<usize>)>,
    decide: Option<(usize, Range<usize>)>,
    /// A `begin_segment` override: the impl plans whole segments.
    plan: bool,
}

/// Extracts every non-test `impl FcOutputPolicy for ..` block.
fn policy_impls(scan: &Scan) -> Vec<PolicyImpl> {
    let cleaned = &scan.cleaned;
    let bodies = syntax::function_bodies(cleaned);
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = cleaned[from..].find("FcOutputPolicy for") {
        let at = from + rel;
        from = at + "FcOutputPolicy for".len();
        let impl_line = scan.line_of(at);
        if scan.is_test_line(impl_line) {
            continue;
        }
        let type_name = syntax::ident_after(cleaned, at + "FcOutputPolicy for".len()).to_owned();
        let Some(open_rel) = cleaned[at..].find('{') else {
            continue;
        };
        let open = at + open_rel;
        let Some(close) = syntax::matching(cleaned, open, b'{', b'}') else {
            continue;
        };
        let mut found = PolicyImpl {
            type_name,
            impl_line,
            steady: None,
            decide: None,
            plan: false,
        };
        for (fn_off, body) in &bodies {
            if *fn_off < open || body.end > close {
                continue;
            }
            match syntax::ident_after(cleaned, fn_off + "fn".len()) {
                "steady_current" => found.steady = Some((*fn_off, body.clone())),
                "segment_current" => found.decide = Some((*fn_off, body.clone())),
                "begin_segment" => found.plan = true,
                _ => {}
            }
        }
        out.push(found);
    }
    out
}

/// The identifier of the third value parameter of `segment_current`
/// (`phase`, `load`, **`soc`** in the trait signature) as this impl
/// spells it — `soc` reads are judged by position, not by name.
fn soc_param_name(signature: &str) -> Option<String> {
    let open = signature.find('(')?;
    let close = syntax::matching(signature, open, b'(', b')')?;
    let params: Vec<&str> = signature[open + 1..close].split(',').collect();
    // params[0] is the self receiver; value params follow.
    let soc_decl = params.get(3)?;
    let name: String = soc_decl
        .trim()
        .trim_start_matches("mut ")
        .chars()
        .take_while(|&c| syntax::is_ident_char(c))
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Is some `if`/match-guard condition in `body` a function of `soc`?
/// (Condition span: from the `if` to the nearest `{` or `=>`.)
fn soc_gated_branch(body: &str, soc: &str) -> bool {
    for off in syntax::word_occurrences(body, "if") {
        let rest = &body[off + "if".len()..];
        let stop = match (rest.find('{'), rest.find("=>")) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => continue,
        };
        if !syntax::word_occurrences(&rest[..stop], soc).is_empty() {
            return true;
        }
    }
    false
}

/// Runs the pass over one file. With a [`SummaryContext`], resolved
/// calls whose summary mutates policy state count as per-chunk-varying;
/// without one the lexical indicators alone decide.
#[must_use]
pub fn check_file(rel_path: &str, scan: &Scan, ctx: Option<&SummaryContext>) -> Vec<Finding> {
    let cleaned = &scan.cleaned;
    if !cleaned.contains("FcOutputPolicy for") {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for imp in policy_impls(scan) {
        let Some((dec_off, dec_body)) = imp.decide else {
            continue; // forwarding impls without a decide path of their own
        };
        let body = &cleaned[dec_body.clone()];
        let signature = &cleaned[dec_off..dec_body.start];

        let hint = match imp.steady {
            Some((_, ref sbody)) => {
                let steady_text = &cleaned[sbody.clone()];
                if steady_text.contains(".steady_current(") {
                    Hint::Delegating
                } else if !syntax::word_occurrences(steady_text, "Some").is_empty() {
                    Hint::Some
                } else {
                    Hint::None
                }
            }
            None => Hint::None, // the trait default returns None
        };
        if matches!(hint, Hint::Delegating) {
            continue;
        }
        let line = imp
            .steady
            .as_ref()
            .map_or(imp.impl_line, |(off, _)| scan.line_of(*off));
        if scan.is_test_line(line) {
            continue;
        }

        // Per-chunk-varying indicators on the decide path.
        let soc = soc_param_name(signature);
        let reads_soc = soc
            .as_ref()
            .is_some_and(|s| !syntax::word_occurrences(body, s).is_empty());
        let mutates = syntax::self_mutation(body);
        let delegates = body.contains(".segment_current(");
        let stateful_call = ctx.is_some_and(|ctx| {
            callgraph::call_names(body).iter().any(|name| {
                ctx.resolve(rel_path, name)
                    .is_some_and(|(_, s)| s.mutates_state)
            })
        });
        let mut reasons: Vec<&str> = Vec::new();
        if reads_soc {
            reasons.push("reads the state of charge");
        }
        if mutates || stateful_call {
            reasons.push("mutates policy state between chunks");
        }
        if delegates {
            reasons.push("delegates to an inner policy's per-chunk decide path");
        }

        let name = &imp.type_name;
        match hint {
            Hint::Some if !reasons.is_empty() => findings.push(Finding {
                rule: AnalyzeRule::HintSoundness.id(),
                path: rel_path.to_owned(),
                line,
                message: format!(
                    "`{name}::steady_current` promises a coalescible Some(..) but \
                     `segment_current` {} — the closed-form segment integration \
                     would freeze state the policy varies per chunk; the hint is unsound",
                    reasons.join(" and ")
                ),
            }),
            // A begin_segment override IS the segment-scoped plan the
            // coalescing warnings below would ask for: nothing to flag.
            Hint::None if imp.plan => {}
            Hint::None if reasons.is_empty() => findings.push(Finding {
                rule: AnalyzeRule::HintCoalescing.id(),
                path: rel_path.to_owned(),
                line,
                message: format!(
                    "`{name}` hints None but its `segment_current` reads only \
                     segment-invariant inputs (phase/load/consts) — a Some(..) hint \
                     would let the simulator coalesce every chunk"
                ),
            }),
            Hint::None => {
                // Soc-gated hysteresis (a branch condition on soc feeding
                // a self write) genuinely couples chunks: None is honest.
                let hysteresis = mutates && soc.as_ref().is_some_and(|s| soc_gated_branch(body, s));
                if !hysteresis {
                    findings.push(Finding {
                        rule: AnalyzeRule::HintCoalescing.id(),
                        path: rel_path.to_owned(),
                        line,
                        message: format!(
                            "`{name}` hints None yet `segment_current` {} without \
                             soc-gated hysteresis — a segment-scoped plan could \
                             coalesce it (ROADMAP: universal coalescing)",
                            reasons.join(" and ")
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "crates/core/src/policy/fixture.rs";

    fn run_on(src: &str) -> Vec<Finding> {
        check_file(FILE, &Scan::new(src), None)
    }

    fn policy(steady_body: &str, decide_body: &str) -> String {
        format!(
            "impl FcOutputPolicy for Fix {{\n    fn segment_current(&mut self, phase: Phase, load: Amps, soc: AmpSeconds) -> Amps {{\n        {decide_body}\n    }}\n    fn steady_current(&self, phase: Phase, load: Amps) -> Option<Amps> {{\n        {steady_body}\n    }}\n}}\n"
        )
    }

    #[test]
    fn sound_some_hint_over_an_invariant_body_is_clean() {
        let src = policy("Some(self.range.max())", "self.range.max()");
        assert!(run_on(&src).is_empty(), "{:?}", run_on(&src));
    }

    #[test]
    fn some_hint_over_a_varying_body_is_unsound() {
        let src = policy(
            "Some(self.range.clamp(load))",
            "if soc < self.capacity { self.range.max() } else { self.range.clamp(load) }",
        );
        let findings = run_on(&src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "hint-soundness");
        assert!(findings[0].message.contains("state of charge"));
    }

    #[test]
    fn none_hint_over_an_invariant_body_is_a_missed_opportunity() {
        let src = policy("None", "self.range.clamp(load)");
        let findings = run_on(&src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "hint-coalescing");
        assert!(findings[0].message.contains("coalesce every chunk"));
    }

    #[test]
    fn none_hint_with_plannable_variation_lands_on_the_worklist() {
        // Mutates an EWMA every chunk but never branches on soc: a
        // segment-scoped plan could coalesce it.
        let src = policy(
            "None",
            "self.ewma = blend(self.ewma, load); self.range.clamp(load)",
        );
        let findings = run_on(&src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "hint-coalescing");
        assert!(findings[0].message.contains("segment-scoped plan"));
    }

    #[test]
    fn a_begin_segment_plan_satisfies_the_coalescing_contract() {
        // Mutates an EWMA per chunk and hints None, but plans whole
        // segments: the plan is the coalescing mechanism, so the
        // worklist warning retires.
        let src = "impl FcOutputPolicy for Fix {\n    fn segment_current(&mut self, phase: Phase, load: Amps, soc: AmpSeconds) -> Amps {\n        self.ewma = blend(self.ewma, load); self.range.clamp(load)\n    }\n    fn steady_current(&self, phase: Phase, load: Amps) -> Option<Amps> {\n        None\n    }\n    fn begin_segment(&mut self, phase: Phase, load: Amps, soc: AmpSeconds, remaining: Seconds) -> SegmentPlan {\n        SegmentPlan::Steady(self.range.clamp(load))\n    }\n}\n";
        assert!(run_on(src).is_empty(), "{:?}", run_on(src));
    }

    #[test]
    fn a_plan_in_another_impl_does_not_excuse_this_one() {
        let src = format!(
            "{}impl FcOutputPolicy for Other {{\n    fn segment_current(&mut self, phase: Phase, load: Amps, soc: AmpSeconds) -> Amps {{\n        self.range.max()\n    }}\n    fn begin_segment(&mut self, phase: Phase, load: Amps, soc: AmpSeconds, remaining: Seconds) -> SegmentPlan {{\n        SegmentPlan::Steady(self.range.max())\n    }}\n    fn steady_current(&self, phase: Phase, load: Amps) -> Option<Amps> {{\n        Some(self.range.max())\n    }}\n}}\n",
            policy(
                "None",
                "self.ewma = blend(self.ewma, load); self.range.clamp(load)",
            )
        );
        let findings = run_on(&src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "hint-coalescing");
    }

    #[test]
    fn soc_gated_hysteresis_justifies_a_none_hint() {
        let src = policy(
            "None",
            "if soc < self.capacity * 0.5 { self.recharging = true; } if self.recharging { self.range.max() } else { self.range.clamp(load) }",
        );
        assert!(run_on(&src).is_empty(), "{:?}", run_on(&src));
    }

    #[test]
    fn delegating_hints_and_test_impls_are_skipped() {
        let src = "impl FcOutputPolicy for Wrap {\n    fn segment_current(&mut self, phase: Phase, load: Amps, soc: AmpSeconds) -> Amps {\n        self.inner.segment_current(phase, load, soc)\n    }\n    fn steady_current(&self, phase: Phase, load: Amps) -> Option<Amps> {\n        self.inner.steady_current(phase, load)\n    }\n}\n";
        assert!(run_on(src).is_empty(), "{:?}", run_on(src));
        let test_src = format!(
            "#[cfg(test)]\nmod tests {{\n{}\n}}\n",
            policy("None", "self.range.clamp(load)")
        );
        assert!(run_on(&test_src).is_empty());
    }

    #[test]
    fn a_missing_steady_override_counts_as_a_none_hint() {
        let src = "impl FcOutputPolicy for Bare {\n    fn segment_current(&mut self, phase: Phase, load: Amps, soc: AmpSeconds) -> Amps {\n        self.range.clamp(load)\n    }\n}\n";
        let findings = run_on(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "hint-coalescing");
        assert_eq!(findings[0].line, 1);
    }
}
