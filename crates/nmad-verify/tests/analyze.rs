//! The committed mutant fixtures, fed through the full analyzer.
//!
//! Each fixture under `tests/fixtures/` holds a seeded defect for one
//! structural rule family. The workspace walker skips the `fixtures`
//! directory, so the gate stays green; this test proves each mutant
//! *would* fail it — i.e. the rules actually fire on the defect shapes
//! they claim to catch.

use nmad_verify::analyze::analyze_files;
use nmad_verify::lint::Violation;

/// Feeds one fixture to the analyzer under an in-scope core path.
fn analyze_fixture(name: &str, src: &str) -> Vec<Violation> {
    let path = format!("crates/nmad-core/src/{name}.rs");
    analyze_files(&[(path, src.to_string())])
}

fn rules_of(vs: &[Violation]) -> Vec<&str> {
    vs.iter().map(|v| v.rule).collect()
}

#[test]
fn panic_mutant_fails_the_gate() {
    let vs = analyze_fixture("mutant_panic", include_str!("fixtures/mutant_panic.rs"));
    let rules = rules_of(&vs);
    // Direct indexing in the root plus the unwrap two calls down.
    assert!(
        rules.iter().filter(|r| **r == "hot-panic-freedom").count() >= 2,
        "{vs:?}"
    );
    assert!(vs.iter().any(|v| v.excerpt.contains("unwrap")), "{vs:?}");
    assert!(vs.iter().any(|v| v.excerpt.contains("slots[..]")), "{vs:?}");
}

#[test]
fn alloc_mutant_fails_the_gate() {
    let vs = analyze_fixture("mutant_alloc", include_str!("fixtures/mutant_alloc.rs"));
    let rules = rules_of(&vs);
    // vec!, format!, .clone() — all direct in the hot fn; the helper's
    // Vec::new is outside it and exempt (direct-only rule).
    assert_eq!(
        rules.iter().filter(|r| **r == "hot-alloc").count(),
        3,
        "{vs:?}"
    );
}

#[test]
fn blocking_mutant_fails_the_gate() {
    let vs = analyze_fixture(
        "mutant_blocking",
        include_str!("fixtures/mutant_blocking.rs"),
    );
    // sleep and Instant::now, both one call below the root —
    // transitivity is what this mutant exercises.
    let blocking: Vec<&Violation> = vs.iter().filter(|v| v.rule == "hot-blocking").collect();
    assert_eq!(blocking.len(), 2, "{vs:?}");
    assert!(blocking.iter().all(|v| v.excerpt.contains("via")), "{vs:?}");
}

#[test]
fn lock_order_mutant_fails_the_gate() {
    let vs = analyze_fixture(
        "mutant_lock_order",
        include_str!("fixtures/mutant_lock_order.rs"),
    );
    // The AB/BA cycle exists only through call propagation; the rule
    // must name both locks in the reported ring.
    let cycles: Vec<&Violation> = vs.iter().filter(|v| v.rule == "lock-order-cycle").collect();
    assert!(!cycles.is_empty(), "{vs:?}");
    assert!(
        cycles[0].excerpt.contains("alpha_mu") && cycles[0].excerpt.contains("beta_mu"),
        "{vs:?}"
    );
}

#[test]
fn ordering_mutant_fails_the_gate() {
    let vs = analyze_fixture(
        "mutant_ordering",
        include_str!("fixtures/mutant_ordering.rs"),
    );
    let audits: Vec<&Violation> = vs
        .iter()
        .filter(|v| v.rule == "atomic-ordering-audit")
        .collect();
    // One unjustified Relaxed, one unpaired Release store.
    assert_eq!(audits.len(), 2, "{vs:?}");
    assert!(
        audits.iter().any(|v| v.excerpt.contains("Relaxed")),
        "{vs:?}"
    );
    assert!(
        audits
            .iter()
            .any(|v| v.excerpt.contains("no Acquire/SeqCst read")),
        "{vs:?}"
    );
}

#[test]
fn the_workspace_rules_are_the_published_catalog() {
    let names: Vec<&str> = nmad_verify::analyze::rule_catalog()
        .iter()
        .map(|(n, _)| *n)
        .collect();
    assert_eq!(names.len(), 12);
    for family in [
        "hot-panic-freedom",
        "hot-alloc",
        "hot-blocking",
        "lock-order-cycle",
        "atomic-ordering-audit",
    ] {
        assert!(names.contains(&family), "missing {family}");
    }
}
