//! # pbl-bench — the benchmark harness
//!
//! One Criterion bench target per paper artefact family (see
//! `benches/`), plus the `report` binary that regenerates every table
//! and figure:
//!
//! ```text
//! cargo run -p pbl-bench --bin report              # everything
//! cargo run -p pbl-bench --bin report -- table4    # one artefact
//! ```
//!
//! The other binaries are deterministic checks for CI: `replication`,
//! `serve`, `os` and `racecheck` take `--check` (and `replication` also
//! `--scalar-check`), `os` and `racecheck` render the byte-compared
//! `BENCH_os.json` and `BENCH_racecheck.json`, and `simcore`,
//! `replication` and `serve` export traces. None of them times
//! anything: end-to-end wall time is measured by the benchmark in
//! `perfbench/`, and per-kernel time by the Criterion targets.
//!
//! This library crate only hosts small shared helpers (the CI summary
//! tables and [`compare_or_write`]); the substance is in the bench
//! targets and the binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use pbl_core::experiments::{is_artefact, ARTEFACTS};

/// Markdown job summaries for CI (`$GITHUB_STEP_SUMMARY`).
///
/// GitHub Actions renders whatever a step appends to the file named by
/// the `GITHUB_STEP_SUMMARY` environment variable as markdown on the
/// run's summary page. The `os` and `racecheck` checks use this to
/// surface their pass/fail tables without anyone opening the log.
/// Locally the variable is unset and everything here is a no-op.
pub mod summary {
    use std::io::Write as _;

    /// Renders a GitHub-flavoured markdown table with a `###` title.
    /// Cell text is pipe-escaped so verdict strings cannot break the
    /// table structure.
    pub fn markdown_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
        let escape = |s: &str| s.replace('|', "\\|");
        let mut out = format!("### {title}\n\n");
        out.push_str(&format!("| {} |\n", headers.join(" | ")));
        out.push_str(&format!("|{}\n", " --- |".repeat(headers.len())));
        for row in rows {
            let cells: Vec<String> = row.iter().map(|c| escape(c)).collect();
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        out.push('\n');
        out
    }

    /// Appends `markdown` to the file at `path`, creating it if needed
    /// — the testable core of [`append_step_summary`]. If the existing
    /// file does not end in a newline (a previous writer left a partial
    /// line), one is inserted first, so a `###` header appended by a
    /// repeated check invocation always starts at column 0 and renders
    /// as a header rather than fusing into the previous line.
    pub fn append_to(path: &str, markdown: &str) -> std::io::Result<()> {
        let needs_newline = matches!(
            std::fs::read(path).as_deref(),
            Ok([.., last]) if *last != b'\n'
        );
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        if needs_newline {
            file.write_all(b"\n")?;
        }
        file.write_all(markdown.as_bytes())
    }

    /// Appends `markdown` to `$GITHUB_STEP_SUMMARY` when the variable
    /// is set and non-empty; returns whether anything was written.
    /// Unset (every local run) is a silent no-op, and a summary-file
    /// write error is reported but never fails the caller — the check
    /// verdict must come from the exit code, not the cosmetics.
    pub fn append_step_summary(markdown: &str) -> bool {
        match std::env::var("GITHUB_STEP_SUMMARY") {
            Ok(path) if !path.is_empty() => match append_to(&path, markdown) {
                Ok(()) => true,
                Err(e) => {
                    eprintln!("step summary: cannot append to {path}: {e}");
                    false
                }
            },
            _ => false,
        }
    }
}

/// The last step of `os` and `racecheck`: with `check`, compares `doc`
/// with the committed file at `path` and returns the failure, `drift`
/// saying what a difference means; otherwise writes `doc` there.
pub fn compare_or_write(
    bin: &str,
    path: &str,
    doc: &str,
    check: bool,
    drift: &str,
) -> Option<String> {
    if !check {
        std::fs::write(path, doc).unwrap_or_else(|e| {
            eprintln!("{bin}: cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("{bin}: wrote {path}");
        return None;
    }
    match std::fs::read_to_string(path) {
        Ok(committed) if committed == doc => {
            println!("{bin}: fresh document matches committed {path}");
            None
        }
        Ok(_) => Some(format!(
            "DRIFT: fresh document differs from committed {path} ({drift})"
        )),
        Err(e) => Some(format!("cannot read committed {path}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artefact_names() {
        assert!(is_artefact("table1"));
        assert!(is_artefact("Table4"));
        assert!(
            !is_artefact("all"),
            "all is the report binary's default, not an artefact"
        );
        assert!(!is_artefact("table9"));
        assert_eq!(ARTEFACTS.len(), 24);
        assert!(is_artefact("os"));
        assert!(is_artefact("races"));
        assert!(is_artefact("metrics"));
        assert!(is_artefact("trace"));
        assert!(is_artefact("semester"));
        assert!(is_artefact("health"));
        assert!(is_artefact("robustness"));
        assert!(is_artefact("spring2019"));
        assert!(is_artefact("replication"));
    }

    #[test]
    fn compare_or_write_writes_then_matches_then_reports_drift() {
        let path = std::env::temp_dir().join(format!("pbl_bench_doc_{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(path);
        let missing = compare_or_write("t", path, "{}\n", true, "why").expect("no file yet");
        assert!(missing.starts_with("cannot read committed"), "{missing}");
        assert_eq!(compare_or_write("t", path, "{}\n", false, "why"), None);
        assert_eq!(std::fs::read_to_string(path).expect("written"), "{}\n");
        assert_eq!(compare_or_write("t", path, "{}\n", true, "why"), None);
        let drift = compare_or_write("t", path, "[]\n", true, "why").expect("differs");
        assert!(
            drift.starts_with("DRIFT") && drift.ends_with("(why)"),
            "{drift}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn summary_markdown_table_renders_and_escapes() {
        let md = summary::markdown_table(
            "Gate verdict",
            &["scenario", "status"],
            &[
                vec!["a/b".into(), "ok".into()],
                vec!["c|d".into(), "FAIL".into()],
            ],
        );
        assert!(md.starts_with("### Gate verdict\n"));
        assert!(md.contains("| scenario | status |"));
        assert!(md.contains("| --- | --- |"));
        assert!(md.contains("| a/b | ok |"));
        assert!(md.contains("c\\|d"), "pipes escaped: {md}");
        assert!(md.ends_with("\n\n"));
    }

    #[test]
    fn summary_append_to_accumulates_across_calls() {
        let path = std::env::temp_dir().join("pbl_bench_summary_test.md");
        let path = path.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(path);
        summary::append_to(path, "first\n").expect("write");
        summary::append_to(path, "second\n").expect("append");
        let got = std::fs::read_to_string(path).expect("read back");
        assert_eq!(got, "first\nsecond\n");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn summary_append_to_guards_the_trailing_newline() {
        let path = std::env::temp_dir().join("pbl_bench_summary_guard_test.md");
        let path = path.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(path);
        // A previous writer left a partial line: the next append must
        // start its header on a fresh line so markdown still renders it.
        summary::append_to(path, "partial").expect("write");
        summary::append_to(path, "### header\n").expect("append");
        let got = std::fs::read_to_string(path).expect("read back");
        assert_eq!(got, "partial\n### header\n");
        // Newline-terminated content gets no extra separator.
        summary::append_to(path, "tail\n").expect("append");
        let got = std::fs::read_to_string(path).expect("read back");
        assert_eq!(got, "partial\n### header\ntail\n");
        let _ = std::fs::remove_file(path);
    }
}
