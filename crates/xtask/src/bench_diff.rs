//! `cargo run -p xtask -- bench-diff`: gate the perf benchmarks
//! against the committed baseline.
//!
//! Freshly generated reports (repo root by default) are compared with
//! the blessed copies in `BENCH_baseline/`, metric by metric:
//!
//! * `BENCH_pingpong.json` — `one_way_us_median` per (bench, engine,
//!   size) row, lower is better. Only the `sim` rows gate: simulated
//!   time is deterministic, so any drift there is a real scheduling
//!   change. The `mem`-driver rows are wall clock on a shared runner
//!   (observed ±70% run to run) and are reported but never gated.
//! * `BENCH_overlap.json` — `overlap_pct` per (mode, size) row,
//!   reported for context but never gated: overlap is a two-thread
//!   wall-clock race on a shared one-core runner, and even the
//!   saturated 256K threaded row (baseline 99.9%) was observed at
//!   0.0% on a rerun of the same build. The deterministic overlap
//!   property is held by the virtual-time tests instead.
//! * `BENCH_batch.json` — the `speedups` ratios, higher is better.
//!   A ratio named `*_vs_batch1` is context: the batched-vs-single
//!   ratios are two-thread wall clock on a shared one-core runner and
//!   swing severalfold run to run (see `extract_batch`), so none of
//!   the committed batch ratios gates. Any other ratio gates. The
//!   absolute `ns_per_op` rows are printed for context but not gated:
//!   wall clock ns depends on the machine.
//! * `BENCH_swarm.json` — the readiness-event counts of the
//!   event-driven TCP endpoint (`idle_events_per_pump`,
//!   `probe_events_per_ready`, and the max-vs-min fanout ratio of the
//!   latter) gate strictly, lower is better: they are deterministic
//!   properties of the pump, and with a 0.0 idle baseline a single
//!   leaked event fails. Accept churn and echo percentiles are wall
//!   clock and context only.
//! * `BENCH_tail.json` — the heavy-tail multi-tenant study. Every
//!   per-class percentile row (p50 → p99.99) and every cross-strategy
//!   ratio is deterministic virtual time and gates strictly; means and
//!   absolute throughput are context.
//!
//! Rows that do not gate are *demoted*, never silently dropped: a
//! demoted row always carries a `context_reason` shown in the status
//! column, and the `Gate` type makes it impossible for a gating row to
//! carry one.
//!
//! A metric is a regression when it moves past the tolerance in its
//! bad direction; a baseline metric missing from the current report
//! is also a regression (coverage loss fails, silently dropping a
//! bench must not pass CI). Exit code 1 on any regression or
//! malformed/missing report, with a delta table either way.

use std::path::Path;
use std::process::ExitCode;

use crate::json::{parse, Json};

/// Which direction is an improvement for a metric.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Better {
    Lower,
    Higher,
}

/// Whether a metric gates the build or is demoted to context.
///
/// Demotion is structural: a gated metric has nowhere to put a reason,
/// and a context metric cannot exist without one. A row therefore can
/// never both gate and carry a "why this doesn't gate" annotation —
/// the combination that would silently lie in the delta table.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Gate {
    /// Gates the build in `Better`'s bad direction.
    Gated(Better),
    /// Printed for context only, with the mandatory human-readable
    /// reason shown in the status column (wall clock, interference,
    /// redundant absolute of a gated ratio, ...).
    Context { context_reason: &'static str },
}

struct Metric {
    key: String,
    baseline: f64,
    current: Option<f64>,
    gate: Gate,
}

impl Metric {
    /// The demotion reason, present exactly when the row is context.
    /// The report path matches on [`Gate`] directly; the structural
    /// no-silent-demotion tests are what consume this accessor.
    #[cfg(test)]
    fn context_reason(&self) -> Option<&'static str> {
        match self.gate {
            Gate::Context { context_reason } => Some(context_reason),
            Gate::Gated(_) => None,
        }
    }
}

pub fn bench_diff(args: &[String]) -> ExitCode {
    let mut tolerance = 0.20f64;
    let mut baseline_dir = "BENCH_baseline".to_string();
    let mut current_dir = ".".to_string();
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(path) => json_path = Some(path.clone()),
                None => {
                    eprintln!("bench-diff: --json needs an output path");
                    return ExitCode::FAILURE;
                }
            },
            "--tolerance" => match it.next().map(|v| parse_tolerance(v)) {
                Some(Ok(t)) => tolerance = t,
                Some(Err(e)) => {
                    eprintln!("bench-diff: {e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("bench-diff: --tolerance needs a value (e.g. 20%)");
                    return ExitCode::FAILURE;
                }
            },
            "--baseline" => match it.next() {
                Some(dir) => baseline_dir = dir.clone(),
                None => {
                    eprintln!("bench-diff: --baseline needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--current" => match it.next() {
                Some(dir) => current_dir = dir.clone(),
                None => {
                    eprintln!("bench-diff: --current needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("bench-diff: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut metrics = Vec::new();
    let mut broken = false;
    for (file, extract) in [
        (
            "BENCH_pingpong.json",
            extract_pingpong as fn(&Json, &Json) -> Vec<Metric>,
        ),
        ("BENCH_overlap.json", extract_overlap as _),
        ("BENCH_batch.json", extract_batch as _),
        ("BENCH_shards.json", extract_shards as _),
        ("BENCH_swarm.json", extract_swarm as _),
        ("BENCH_tail.json", extract_tail as _),
    ] {
        let base_path = Path::new(&baseline_dir).join(file);
        let cur_path = Path::new(&current_dir).join(file);
        match (load(&base_path), load(&cur_path)) {
            (Ok(base), Ok(cur)) => {
                let extracted = extract(&base, &cur);
                if extracted.is_empty() {
                    eprintln!("bench-diff: {file}: no comparable metrics (malformed report?)");
                    broken = true;
                }
                metrics.extend(extracted);
            }
            (Err(e), _) => {
                eprintln!("bench-diff: {}: {e}", base_path.display());
                broken = true;
            }
            (_, Err(e)) => {
                eprintln!("bench-diff: {}: {e}", cur_path.display());
                broken = true;
            }
        }
    }

    let mut regressions = 0usize;
    let mut rows: Vec<(String, f64, Option<f64>, String, String)> = Vec::new();
    println!(
        "\n## bench-diff — current vs {baseline_dir} (tolerance {:.0}%)\n",
        tolerance * 100.0
    );
    println!("| metric | baseline | current | delta | status |");
    println!("|--------|----------|---------|-------|--------|");
    for m in &metrics {
        let (delta, status) = match m.current {
            None => (String::from("—"), "REGRESSION (missing)"),
            Some(cur) => {
                let delta_pct = if m.baseline.abs() > f64::EPSILON {
                    (cur - m.baseline) / m.baseline * 100.0
                } else {
                    0.0
                };
                let status = match m.gate {
                    Gate::Context { context_reason } => context_reason,
                    Gate::Gated(Better::Lower) if cur > m.baseline * (1.0 + tolerance) => {
                        "REGRESSION"
                    }
                    Gate::Gated(Better::Higher) if cur < m.baseline * (1.0 - tolerance) => {
                        "REGRESSION"
                    }
                    Gate::Gated(_) => "ok",
                };
                (format!("{delta_pct:+.1}%"), status)
            }
        };
        if status.starts_with("REGRESSION") {
            regressions += 1;
        }
        println!(
            "| {} | {:.3} | {} | {} | {} |",
            m.key,
            m.baseline,
            m.current.map_or("—".into(), |c| format!("{c:.3}")),
            delta,
            status
        );
        rows.push((
            m.key.clone(),
            m.baseline,
            m.current,
            delta,
            status.to_string(),
        ));
    }
    println!(
        "\n{} metric(s), {} regression(s){}",
        metrics.len(),
        regressions,
        if broken { ", broken report(s)" } else { "" }
    );
    if let Some(path) = json_path {
        let doc = diff_json(&rows, tolerance, regressions, broken);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("bench-diff: cannot write {path}: {e}");
            broken = true;
        }
    }
    if regressions > 0 || broken {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The delta table as a JSON document, through the shared
/// [`crate::json::escape`] emitter (metric keys carry `/` and `%`
/// today, but the escaper owns the contract either way).
fn diff_json(
    rows: &[(String, f64, Option<f64>, String, String)],
    tolerance: f64,
    regressions: usize,
    broken: bool,
) -> String {
    use crate::json::escape;
    let mut s = format!("{{\"task\":\"bench-diff\",\"tolerance\":{tolerance},\"metrics\":[");
    for (i, (key, baseline, current, delta, status)) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"key\":\"{}\",\"baseline\":{baseline},\"current\":{},\"delta\":\"{}\",\"status\":\"{}\"}}",
            escape(key),
            current.map_or("null".to_string(), |c| format!("{c}")),
            escape(delta),
            escape(status)
        ));
    }
    s.push_str(&format!(
        "],\"regressions\":{regressions},\"broken\":{broken}}}\n"
    ));
    s
}

fn parse_tolerance(text: &str) -> Result<f64, String> {
    let trimmed = text.strip_suffix('%').unwrap_or(text);
    let value: f64 = trimmed
        .parse()
        .map_err(|_| format!("bad tolerance {text:?} (want e.g. 20%)"))?;
    if !(0.0..=100.0).contains(&value) {
        return Err(format!("tolerance {value} out of range 0..=100"));
    }
    Ok(value / 100.0)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    parse(&text).map_err(|e| format!("invalid JSON: {e}"))
}

/// Float lookup helpers over the row arrays. Rows are matched by their
/// identity fields, not array position, so reordering a report never
/// produces a bogus diff.
fn row_metric(doc: &Json, section: &str, ident: &[&str], metric: &str) -> Vec<(String, f64)> {
    let Some(rows) = doc.get(section).and_then(Json::as_arr) else {
        return Vec::new();
    };
    rows.iter()
        .filter_map(|row| {
            let key = ident
                .iter()
                .map(|field| match row.get(field) {
                    Some(Json::Str(s)) => s.clone(),
                    Some(Json::Num(n)) => format!("{n}"),
                    _ => String::from("?"),
                })
                .collect::<Vec<_>>()
                .join("/");
            row.get(metric)
                .and_then(Json::as_f64)
                .map(|v| (format!("{section}:{key}:{metric}"), v))
        })
        .collect()
}

/// The numbers of a named-value section (a JSON object such as
/// `"speedups": {"name": 1.5}`), keyed `section:name`.
fn named_values(doc: &Json, section: &str) -> Vec<(String, f64)> {
    doc.get(section)
        .and_then(Json::members)
        .map(|members| {
            members
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|f| (format!("{section}:{k}"), f)))
                .collect()
        })
        .unwrap_or_default()
}

fn pair(
    base: Vec<(String, f64)>,
    cur: Vec<(String, f64)>,
    gate_for: impl Fn(&str) -> Gate,
) -> Vec<Metric> {
    base.into_iter()
        .map(|(key, baseline)| Metric {
            current: cur.iter().find(|(k, _)| *k == key).map(|(_, v)| *v),
            gate: gate_for(&key),
            key,
            baseline,
        })
        .collect()
}

fn extract_pingpong(base: &Json, cur: &Json) -> Vec<Metric> {
    pair(
        row_metric(
            base,
            "benchmarks",
            &["bench", "engine", "size"],
            "one_way_us_median",
        ),
        row_metric(
            cur,
            "benchmarks",
            &["bench", "engine", "size"],
            "one_way_us_median",
        ),
        // Simulated-time rows are deterministic and gate strictly; the
        // mem-driver rows are wall clock and only informational.
        |key| {
            if key.contains("/sim") {
                Gate::Gated(Better::Lower)
            } else {
                Gate::Context {
                    context_reason: "skipped (wall-clock)",
                }
            }
        },
    )
}

fn extract_overlap(base: &Json, cur: &Json) -> Vec<Metric> {
    // Overlap percentage is a two-thread wall-clock race on a shared
    // one-core runner: whether the progression thread runs at all
    // during the compute window is scheduler luck. A stable floor of
    // 50% was tried first, but even the saturated 256K threaded row
    // (baseline 99.9%) was then observed at 0.0%, 12.2% and 99.9% on
    // three consecutive runs of the *same build*, so no overlap row
    // gates. The deterministic overlap property is held by the
    // virtual-time tests instead; these rows are context.
    pair(
        row_metric(base, "overlap", &["mode", "size"], "overlap_pct"),
        row_metric(cur, "overlap", &["mode", "size"], "overlap_pct"),
        |_| Gate::Context {
            context_reason: "skipped (interference-bound)",
        },
    )
}

fn extract_batch(base: &Json, cur: &Json) -> Vec<Metric> {
    // Both batched-vs-single ratios are dominated by how the OS
    // interleaves the submitting thread with the progression threads
    // — observed 5x to 30x (send burst) and 2.7x to 8x (recv burst)
    // run to run on the *same build* on a one-core host, the latter
    // driven entirely by the batch1 denominator's doorbell/wake cost
    // — so they are context, not gates. A ratio under any other name
    // gates, higher is better.
    let mut out = pair(
        named_values(base, "speedups"),
        named_values(cur, "speedups"),
        |key| {
            if key.contains("_vs_batch1") {
                Gate::Context {
                    context_reason: "skipped (interference-bound)",
                }
            } else {
                Gate::Gated(Better::Higher)
            }
        },
    );
    out.extend(pair(
        row_metric(base, "batch", &["bench", "variant"], "ns_per_op"),
        row_metric(cur, "batch", &["bench", "variant"], "ns_per_op"),
        |_| Gate::Context {
            context_reason: "info (wall-clock ns)",
        },
    ));
    out
}

fn extract_shards(base: &Json, cur: &Json) -> Vec<Metric> {
    // The scaling ratios come from deterministic virtual time, so they
    // gate strictly: a shard-count that stops paying for itself is a
    // real routing or steal-path change. The absolute MB/s rows repeat
    // the same information per point and are context.
    let mut out = pair(
        named_values(base, "scaling"),
        named_values(cur, "scaling"),
        |_| Gate::Gated(Better::Higher),
    );
    out.extend(pair(
        row_metric(base, "shards", &["shards"], "throughput_mbs"),
        row_metric(cur, "shards", &["shards"], "throughput_mbs"),
        |_| Gate::Context {
            context_reason: "info (absolute of gated ratio)",
        },
    ));
    out
}

fn extract_swarm(base: &Json, cur: &Json) -> Vec<Metric> {
    // The readiness-event counts are deterministic properties of the
    // endpoint pump — an idle pump touches zero sockets and K ready
    // sockets cost ~K events regardless of fanout — so they gate
    // strictly, lower is better. The idle baseline is 0.0, and the
    // zero-baseline rule (any positive current exceeds 0*(1+tol))
    // means a single leaked idle event fails the gate. Accept churn
    // and echo percentiles are wall clock on a shared one-core runner
    // and are context only.
    let mut out = pair(
        row_metric(base, "swarm", &["connections"], "idle_events_per_pump"),
        row_metric(cur, "swarm", &["connections"], "idle_events_per_pump"),
        |_| Gate::Gated(Better::Lower),
    );
    out.extend(pair(
        row_metric(base, "swarm", &["connections"], "probe_events_per_ready"),
        row_metric(cur, "swarm", &["connections"], "probe_events_per_ready"),
        |_| Gate::Gated(Better::Lower),
    ));
    out.extend(pair(
        named_values(base, "probes"),
        named_values(cur, "probes"),
        |_| Gate::Gated(Better::Lower),
    ));
    for metric in ["accepts_per_sec", "ping_p50_us", "ping_p99_us"] {
        out.extend(pair(
            row_metric(base, "swarm", &["connections"], metric),
            row_metric(cur, "swarm", &["connections"], metric),
            |_| Gate::Context {
                context_reason: "info (wall-clock)",
            },
        ));
    }
    out
}

fn extract_tail(base: &Json, cur: &Json) -> Vec<Metric> {
    // The tail benchmark's percentile ladder is deterministic virtual
    // time (log-bucketed, so values only move when scheduling actually
    // changes): every percentile row gates strictly, lower is better —
    // including p99.99, which is the whole point of the study. The
    // named cross-strategy ratios (aggreg-over-lanes p99.9, throughput
    // shares) gate in the higher-is-better direction: a collapse there
    // means `lanes` stopped paying for itself.
    // Mean latency and absolute MB/s repeat gated information and are
    // context.
    //
    // One more wrinkle: the workload is saturating, so its backlog —
    // and with it every percentile and cross-strategy ratio — grows
    // with the sweep's message count. The rows only gate when both
    // reports ran the same sweep (the per-class `count` fields agree);
    // diffing the committed repo-root *full* sweep against the quick
    // baseline demotes them to context instead of false-failing. CI
    // regenerates quick against the quick baseline, where they gate
    // strictly.
    let mut out = Vec::new();
    let ident: &[&str] = &["scenario", "strategy", "class"];
    let base_counts = row_metric(base, "tail", ident, "count");
    let cur_counts = row_metric(cur, "tail", ident, "count");
    let same_sweep = !base_counts.is_empty()
        && base_counts.iter().all(|(key, n)| {
            cur_counts
                .iter()
                .find(|(k, _)| k == key)
                .is_none_or(|(_, c)| c == n)
        });
    let scale_gate = |better: Better| {
        if same_sweep {
            Gate::Gated(better)
        } else {
            Gate::Context {
                context_reason: "skipped (different sweep scale)",
            }
        }
    };
    for metric in ["p50_us", "p90_us", "p99_us", "p999_us", "p9999_us"] {
        out.extend(pair(
            row_metric(base, "tail", ident, metric),
            row_metric(cur, "tail", ident, metric),
            |_| scale_gate(Better::Lower),
        ));
    }
    out.extend(pair(
        row_metric(base, "tail", ident, "mean_us"),
        row_metric(cur, "tail", ident, "mean_us"),
        |_| Gate::Context {
            context_reason: "info (derived mean)",
        },
    ));
    out.extend(pair(
        named_values(base, "ratios"),
        named_values(cur, "ratios"),
        |_| scale_gate(Better::Higher),
    ));
    out.extend(pair(
        named_values(base, "throughput"),
        named_values(cur, "throughput"),
        |_| Gate::Context {
            context_reason: "info (absolute of gated ratio)",
        },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE_BATCH: &str = r#"{"batch":[
        {"bench":"submit_overhead","variant":"batch32","ns_per_op":20.0,"ops":256}],
        "speedups":{"submit_batch32_vs_batch1":4.0,"wheel_vs_heap_10k_flows":7.0}}"#;

    fn metrics_for(base: &str, cur: &str) -> Vec<Metric> {
        extract_batch(&parse(base).unwrap(), &parse(cur).unwrap())
    }

    fn regressed(m: &Metric, tolerance: f64) -> bool {
        // Mirrors the driver: a missing metric is a coverage
        // regression even for context rows.
        match (m.gate, m.current) {
            (_, None) => true,
            (Gate::Context { .. }, _) => false,
            (Gate::Gated(Better::Lower), Some(c)) => c > m.baseline * (1.0 + tolerance),
            (Gate::Gated(Better::Higher), Some(c)) => c < m.baseline * (1.0 - tolerance),
        }
    }

    #[test]
    fn diff_json_emits_valid_parseable_json() {
        let rows = vec![
            (
                "speedups:wheel_vs_heap".to_string(),
                7.0,
                Some(6.3),
                "-10.0%".to_string(),
                "ok".to_string(),
            ),
            (
                "tail:mixed/\"q\"\tclass:p99_us".to_string(),
                10.0,
                None,
                "—".to_string(),
                "REGRESSION (missing)".to_string(),
            ),
        ];
        let doc = parse(&diff_json(&rows, 0.20, 1, false)).expect("emitted JSON parses");
        let metrics = doc.get("metrics").and_then(Json::as_arr).unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[1].get("current"), Some(&Json::Null));
        assert_eq!(
            metrics[1].get("key"),
            Some(&Json::Str("tail:mixed/\"q\"\tclass:p99_us".into()))
        );
        assert_eq!(doc.get("regressions").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn tolerance_accepts_percent_and_plain_forms() {
        assert_eq!(parse_tolerance("20%").unwrap(), 0.20);
        assert_eq!(parse_tolerance("5").unwrap(), 0.05);
        assert!(parse_tolerance("abc").is_err());
        assert!(parse_tolerance("150%").is_err());
    }

    #[test]
    fn a_2x_speedup_drop_is_a_regression_but_small_drift_is_not() {
        let halved = BASE_BATCH.replace("7.0", "3.5");
        let m = metrics_for(BASE_BATCH, &halved);
        let slow = m.iter().find(|m| m.key.contains("wheel")).unwrap();
        assert!(regressed(slow, 0.20), "2x slowdown must gate");
        let drift = BASE_BATCH.replace("7.0", "6.3");
        let m = metrics_for(BASE_BATCH, &drift);
        let ok = m.iter().find(|m| m.key.contains("wheel")).unwrap();
        assert!(!regressed(ok, 0.20), "10% drift is within tolerance");
    }

    #[test]
    fn a_missing_metric_is_a_regression() {
        let gone = r#"{"batch":[],"speedups":{"submit_batch32_vs_batch1":4.0}}"#;
        let m = metrics_for(BASE_BATCH, gone);
        let lost = m.iter().find(|m| m.key.contains("wheel")).unwrap();
        assert!(lost.current.is_none());
        assert!(regressed(lost, 0.20));
    }

    #[test]
    fn ns_per_op_rows_are_context_not_gates() {
        let slower = BASE_BATCH.replace("20.0", "200.0");
        let m = metrics_for(BASE_BATCH, &slower);
        let info = m.iter().find(|m| m.key.contains("ns_per_op")).unwrap();
        assert!(info.context_reason().is_some());
        assert!(!regressed(info, 0.20));
    }

    #[test]
    fn overlap_rows_never_gate_even_from_a_saturated_baseline() {
        // Regression test for a flaky CI gate: the 256K threaded row
        // was observed at 0.0% and 99.9% on consecutive runs of the
        // same build on a one-core runner, so even a total collapse
        // from a saturated baseline must not fail the build.
        let base = r#"{"overlap":[
            {"mode":"inline","size":16384,"overlap_pct":0.6},
            {"mode":"threaded","size":262144,"overlap_pct":99.9}]}"#;
        let cur = r#"{"overlap":[
            {"mode":"inline","size":16384,"overlap_pct":0.0},
            {"mode":"threaded","size":262144,"overlap_pct":0.0}]}"#;
        let m = extract_overlap(&parse(base).unwrap(), &parse(cur).unwrap());
        assert_eq!(m.len(), 2);
        for metric in &m {
            assert_eq!(
                metric.context_reason(),
                Some("skipped (interference-bound)")
            );
            assert!(!regressed(metric, 0.20), "{} must not gate", metric.key);
        }
        // But a vanished row is still a coverage regression.
        let gone = r#"{"overlap":[]}"#;
        let m = extract_overlap(&parse(base).unwrap(), &parse(gone).unwrap());
        assert!(m.iter().all(|m| m.current.is_none()));
        assert!(m.iter().all(|m| regressed(m, 0.20)));
    }

    #[test]
    fn pingpong_latency_gates_in_the_lower_is_better_direction() {
        let base = r#"{"benchmarks":[
            {"bench":"pp/sim/MX","engine":"nmad","size":4096,"one_way_us_median":10.0}],"verify":{}}"#;
        let slower = base.replace("10.0", "25.0");
        let faster = base.replace("10.0", "5.0");
        let m = extract_pingpong(&parse(base).unwrap(), &parse(&slower).unwrap());
        assert!(regressed(&m[0], 0.20));
        let m = extract_pingpong(&parse(base).unwrap(), &parse(&faster).unwrap());
        assert!(!regressed(&m[0], 0.20));
    }

    #[test]
    fn wall_clock_pingpong_rows_never_gate() {
        let base = r#"{"benchmarks":[
            {"bench":"pp/mem","engine":"nmad","size":4096,"one_way_us_median":10.0}],"verify":{}}"#;
        let slower = base.replace("10.0", "25.0");
        let m = extract_pingpong(&parse(base).unwrap(), &parse(&slower).unwrap());
        assert_eq!(m[0].context_reason(), Some("skipped (wall-clock)"));
        assert!(!regressed(&m[0], 0.20));
    }

    const BASE_SHARDS: &str = r#"{"shards":[
        {"shards":1,"rails":1,"flows":64,"total_bytes":16777216,"virtual_us":13728.0,"throughput_mbs":1222.0},
        {"shards":4,"rails":4,"flows":64,"total_bytes":16777216,"virtual_us":3442.0,"throughput_mbs":4874.0}],
        "scaling":{"scale_4x_over_1x":3.989}}"#;

    #[test]
    fn a_collapsed_shard_scaling_ratio_is_a_regression() {
        let collapsed = BASE_SHARDS.replace("3.989", "1.100");
        let m = extract_shards(&parse(BASE_SHARDS).unwrap(), &parse(&collapsed).unwrap());
        let ratio = m.iter().find(|m| m.key.contains("scale_4x")).unwrap();
        assert!(regressed(ratio, 0.20), "4x -> 1.1x scaling must gate");
        let drift = BASE_SHARDS.replace("3.989", "3.700");
        let m = extract_shards(&parse(BASE_SHARDS).unwrap(), &parse(&drift).unwrap());
        let ok = m.iter().find(|m| m.key.contains("scale_4x")).unwrap();
        assert!(!regressed(ok, 0.20), "7% drift is within tolerance");
    }

    #[test]
    fn shard_throughput_rows_are_context_not_gates() {
        let slower = BASE_SHARDS.replace("4874.0", "100.0");
        let m = extract_shards(&parse(BASE_SHARDS).unwrap(), &parse(&slower).unwrap());
        let info = m.iter().find(|m| m.key.contains("throughput_mbs")).unwrap();
        assert!(info.context_reason().is_some());
        assert!(!regressed(info, 0.20));
    }

    #[test]
    fn a_missing_scaling_ratio_is_a_regression() {
        let gone = r#"{"shards":[],"scaling":{}}"#;
        let m = extract_shards(&parse(BASE_SHARDS).unwrap(), &parse(gone).unwrap());
        let lost = m.iter().find(|m| m.key.contains("scale_4x")).unwrap();
        assert!(lost.current.is_none());
        assert!(regressed(lost, 0.20));
    }

    const BASE_SWARM: &str = r#"{"swarm":[
        {"connections":64,"backend":"epoll","accepts_per_sec":6693.0,"ping_p50_us":3.5,"ping_p99_us":46.0,"ping_p999_us":57.6,"idle_events_per_pump":0.0000,"probe_events_per_ready":1.0000},
        {"connections":1024,"backend":"epoll","accepts_per_sec":331.0,"ping_p50_us":40.7,"ping_p99_us":54.4,"ping_p999_us":118.6,"idle_events_per_pump":0.0000,"probe_events_per_ready":1.0000}],
        "probes":{"ready_cost_max_vs_min":1.000}}"#;

    #[test]
    fn a_single_leaked_idle_event_fails_the_swarm_gate() {
        // Zero baseline + Better::Lower: any positive current exceeds
        // 0*(1+tol), so one idle socket touched per 200 pumps gates.
        let leaky = BASE_SWARM.replacen("0.0000", "0.0050", 1);
        let m = extract_swarm(&parse(BASE_SWARM).unwrap(), &parse(&leaky).unwrap());
        let idle = m
            .iter()
            .find(|m| m.key == "swarm:64:idle_events_per_pump")
            .unwrap();
        assert!(regressed(idle, 0.20), "leaked idle events must gate");
    }

    #[test]
    fn linear_scan_ready_cost_fails_the_swarm_gate_but_drift_does_not() {
        // O(held) pumping at 1024 conns / 32 ready would show ~32x.
        let scan = BASE_SWARM.replacen("1.0000", "32.0000", 2);
        let m = extract_swarm(&parse(BASE_SWARM).unwrap(), &parse(&scan).unwrap());
        let cost = m
            .iter()
            .find(|m| m.key == "swarm:64:probe_events_per_ready")
            .unwrap();
        assert!(regressed(cost, 0.20), "O(held) ready cost must gate");
        let drift = BASE_SWARM.replacen("1.0000", "1.0600", 2);
        let m = extract_swarm(&parse(BASE_SWARM).unwrap(), &parse(&drift).unwrap());
        let ok = m
            .iter()
            .find(|m| m.key == "swarm:64:probe_events_per_ready")
            .unwrap();
        assert!(!regressed(ok, 0.20), "6% drift is within tolerance");
    }

    #[test]
    fn swarm_probe_ratio_gates_and_extra_current_rows_are_ignored() {
        // A full-sweep current report carries more rows and a larger
        // fanout behind the same probe key; only baseline rows pair.
        let full = r#"{"swarm":[
            {"connections":64,"backend":"epoll","accepts_per_sec":5798.0,"ping_p50_us":3.6,"ping_p99_us":47.5,"ping_p999_us":328.2,"idle_events_per_pump":0.0000,"probe_events_per_ready":1.0000},
            {"connections":1024,"backend":"epoll","accepts_per_sec":972.0,"ping_p50_us":11.7,"ping_p99_us":67.6,"ping_p999_us":823.8,"idle_events_per_pump":0.0000,"probe_events_per_ready":1.0000},
            {"connections":10000,"backend":"epoll","accepts_per_sec":1522.0,"ping_p50_us":40.7,"ping_p99_us":51.9,"ping_p999_us":90.6,"idle_events_per_pump":0.0000,"probe_events_per_ready":1.0000}],
            "probes":{"ready_cost_max_vs_min":1.000}}"#;
        let m = extract_swarm(&parse(BASE_SWARM).unwrap(), &parse(full).unwrap());
        assert!(m.iter().all(|m| m.current.is_some()), "all rows must pair");
        assert!(m.iter().all(|m| !regressed(m, 0.20)));
        let degraded = full.replace(
            r#""ready_cost_max_vs_min":1.000"#,
            r#""ready_cost_max_vs_min":156.0"#,
        );
        let m = extract_swarm(&parse(BASE_SWARM).unwrap(), &parse(&degraded).unwrap());
        let probe = m
            .iter()
            .find(|m| m.key == "probes:ready_cost_max_vs_min")
            .unwrap();
        assert!(
            regressed(probe, 0.20),
            "fanout-dependent ready cost must gate"
        );
    }

    #[test]
    fn swarm_wall_clock_rows_are_context_not_gates() {
        let slower = BASE_SWARM
            .replace("6693.0", "100.0")
            .replace("3.5", "900.0")
            .replace("46.0", "9000.0");
        let m = extract_swarm(&parse(BASE_SWARM).unwrap(), &parse(&slower).unwrap());
        for metric in m.iter().filter(|m| {
            ["accepts_per_sec", "ping_p50_us", "ping_p99_us"]
                .iter()
                .any(|s| m.key.ends_with(s))
        }) {
            assert!(metric.context_reason().is_some(), "{}", metric.key);
            assert!(!regressed(metric, 0.20));
        }
    }

    const BASE_TAIL: &str = r#"{"tail":[
        {"scenario":"mixed","strategy":"aggreg","class":"urgent-small","count":415,"p50_us":217.1,"p90_us":4063.2,"p99_us":4587.5,"p999_us":4587.5,"p9999_us":4587.5,"mean_us":1000.0},
        {"scenario":"mixed","strategy":"lanes","class":"urgent-small","count":415,"p50_us":57.3,"p90_us":102.4,"p99_us":180.2,"p999_us":344.1,"p9999_us":344.1,"mean_us":70.0}],
        "throughput":{"mixed/aggreg":1813.00,"mixed/lanes":1816.00},
        "ratios":{"mixed/urgent-small/aggreg_p999_over_lanes":13.331,"mixed/lanes_throughput_over_aggreg":1.002}}"#;

    #[test]
    fn tail_percentile_rows_gate_lower_is_better() {
        let slower = BASE_TAIL.replace("\"p999_us\":344.1", "\"p999_us\":4000.0");
        let m = extract_tail(&parse(BASE_TAIL).unwrap(), &parse(&slower).unwrap());
        let p999 = m
            .iter()
            .find(|m| m.key == "tail:mixed/lanes/urgent-small:p999_us")
            .unwrap();
        assert_eq!(p999.gate, Gate::Gated(Better::Lower));
        assert!(regressed(p999, 0.20), "a 10x p99.9 blowup must gate");
        let m = extract_tail(&parse(BASE_TAIL).unwrap(), &parse(BASE_TAIL).unwrap());
        assert!(m.iter().all(|m| !regressed(m, 0.20)));
    }

    #[test]
    fn tail_rows_from_a_different_sweep_scale_demote_instead_of_gating() {
        // The committed repo-root report is the full sweep; the
        // baseline is the quick one. Percentiles and ratios of a
        // saturating workload scale with message count, so rows from
        // mismatched sweeps must demote with a reason — never gate.
        let full = BASE_TAIL
            .replace("\"count\":415", "\"count\":2393")
            .replace("\"p999_us\":344.1", "\"p999_us\":1605.6")
            .replace("13.331", "20.245");
        let m = extract_tail(&parse(BASE_TAIL).unwrap(), &parse(&full).unwrap());
        assert!(!m.is_empty());
        for metric in &m {
            assert!(!regressed(metric, 0.20), "{} must not gate", metric.key);
        }
        let p999 = m
            .iter()
            .find(|m| m.key == "tail:mixed/lanes/urgent-small:p999_us")
            .unwrap();
        assert_eq!(
            p999.context_reason(),
            Some("skipped (different sweep scale)")
        );
        let ratio = m
            .iter()
            .find(|m| m.key.contains("aggreg_p999_over_lanes"))
            .unwrap();
        assert_eq!(
            ratio.context_reason(),
            Some("skipped (different sweep scale)")
        );
    }

    #[test]
    fn a_collapsed_tail_ratio_is_a_regression_but_means_are_context() {
        let collapsed = BASE_TAIL.replace("13.331", "1.500");
        let m = extract_tail(&parse(BASE_TAIL).unwrap(), &parse(&collapsed).unwrap());
        let ratio = m
            .iter()
            .find(|m| m.key.contains("aggreg_p999_over_lanes"))
            .unwrap();
        assert!(regressed(ratio, 0.20), "13x -> 1.5x tail win must gate");
        let slower_mean = BASE_TAIL.replace("\"mean_us\":70.0", "\"mean_us\":900.0");
        let m = extract_tail(&parse(BASE_TAIL).unwrap(), &parse(&slower_mean).unwrap());
        let mean = m
            .iter()
            .find(|m| m.key == "tail:mixed/lanes/urgent-small:mean_us")
            .unwrap();
        assert!(mean.context_reason().is_some());
        assert!(!regressed(mean, 0.20));
        // Absolute throughput is context; the ratio above is the gate.
        let tp = m
            .iter()
            .find(|m| m.key == "throughput:mixed/lanes")
            .unwrap();
        assert!(tp.context_reason().is_some());
    }

    #[test]
    fn a_gated_row_cannot_silently_carry_a_context_reason() {
        // Structural guarantee of the `Gate` type: a reason exists if
        // and only if the row is demoted to context, so a row that
        // gates can never also carry a "why this doesn't gate" note.
        // Sweep every extractor over its sample document and check the
        // iff both ways; demoted rows must also explain themselves
        // with a non-empty reason.
        let all: Vec<Metric> = [
            extract_batch(&parse(BASE_BATCH).unwrap(), &parse(BASE_BATCH).unwrap()),
            extract_shards(&parse(BASE_SHARDS).unwrap(), &parse(BASE_SHARDS).unwrap()),
            extract_swarm(&parse(BASE_SWARM).unwrap(), &parse(BASE_SWARM).unwrap()),
            extract_tail(&parse(BASE_TAIL).unwrap(), &parse(BASE_TAIL).unwrap()),
        ]
        .into_iter()
        .flatten()
        .collect();
        assert!(all.iter().any(|m| matches!(m.gate, Gate::Gated(_))));
        assert!(all.iter().any(|m| matches!(m.gate, Gate::Context { .. })));
        for m in &all {
            match m.gate {
                Gate::Gated(_) => assert_eq!(m.context_reason(), None, "{}", m.key),
                Gate::Context { context_reason } => {
                    assert_eq!(m.context_reason(), Some(context_reason), "{}", m.key);
                    assert!(!context_reason.is_empty(), "{}", m.key);
                }
            }
        }
    }

    #[test]
    fn interference_bound_batch1_ratios_never_gate() {
        let base = r#"{"batch":[],"speedups":{"send_batch32_vs_batch1":30.0,"submit_batch32_vs_batch1":6.0}}"#;
        let cratered = base.replace("30.0", "5.0").replace("6.0", "2.7");
        let m = metrics_for(base, &cratered);
        for metric in &m {
            assert!(
                metric.context_reason().is_some(),
                "{} must be demoted",
                metric.key
            );
            assert!(!regressed(metric, 0.20));
        }
    }
}
