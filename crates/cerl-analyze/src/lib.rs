//! `cerl-analyze` — concurrency-invariant static analysis for the cerl
//! workspace, hand-rolled in the same no-external-deps style as
//! `cerl-net`'s reactor (no `syn`, no walkdir: a purpose-built lexer
//! plus a recursive directory walk).
//!
//! The serving stack's correctness rests on invariants that the
//! compiler cannot see: every `unsafe` needs a stated obligation, every
//! atomic ordering needs a named happens-before edge, the serving path
//! must not panic, lock guards must not straddle blocking calls, and
//! the fault taxonomy must classify every variant. This crate turns
//! those review-time conventions into a deny-mode CI gate:
//!
//! ```text
//! cargo run -p cerl-analyze -- --deny
//! ```
//!
//! Findings print as `file:line — rule — message`; `--json PATH` also
//! writes a machine-readable summary (schema `cerl-analyze/v1`).

pub mod lexer;
pub mod rules;

use lexer::SourceFile;
use rules::Scope;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (or the path as given in file mode).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule id (see [`rules`] for the table).
    pub rule: &'static str,
    /// Human-readable explanation with the expected annotation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} — {} — {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Read and lex one file; `rel` is the path recorded in findings.
pub fn scan_file(path: &Path, rel: &str) -> io::Result<SourceFile> {
    let text = fs::read_to_string(path)?;
    Ok(lexer::lex(rel, &text))
}

/// The rule scope the workspace layout assigns to `rel` (forward-slash,
/// workspace-relative). `None` means the file is not scanned at all.
///
/// - `vendor/` (offline dependency shims) and generated trees are out;
/// - `crates/cerl-bench` is a diagnostic harness, held to unsafe
///   hygiene only (its counters are not serving-path atomics);
/// - the panic/lock/obs-stage rules cover the serving path:
///   `cerl-serve`, `cerl-net`, `cerl-obs`, and
///   `cerl-core/src/serving.rs` — by crate prefix, so modules added to
///   those crates later (the replica route policies in
///   `cerl-serve/src/policy.rs`, the per-domain counters in
///   `cerl-obs/src/domains.rs`) are scoped automatically;
/// - the dense-kernel hot modules — `cerl-math/src/matmul.rs` (the
///   blocked GEMM every predict routes through) and
///   `cerl-core/src/precision.rs` (the compiled inference plan) — are also
///   panic-path scoped: a panic there takes down a request thread just
///   as surely as one in `serving.rs`;
/// - hot-path modules (`serving.rs`, `histogram.rs`, `server.rs`,
///   `trace.rs`) additionally forbid `SeqCst` outright.
pub fn scope_for(rel: &str) -> Option<Scope> {
    if !rel.ends_with(".rs") {
        return None;
    }
    if rel.starts_with("vendor/") || rel.contains("/target/") {
        return None;
    }
    let in_src = rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"));
    if !in_src {
        return None;
    }
    let bench = rel.starts_with("crates/cerl-bench/");
    let analyzer = rel.starts_with("crates/cerl-analyze/");
    let serving_path = rel.starts_with("crates/cerl-serve/src/")
        || rel.starts_with("crates/cerl-net/src/")
        || rel.starts_with("crates/cerl-obs/src/")
        || rel == "crates/cerl-core/src/serving.rs";
    let dense_kernel =
        rel == "crates/cerl-math/src/matmul.rs" || rel == "crates/cerl-core/src/precision.rs";
    let base = rel.rsplit('/').next().unwrap_or(rel);
    let hot = serving_path
        && matches!(
            base,
            "serving.rs" | "histogram.rs" | "server.rs" | "trace.rs"
        );
    Some(Scope {
        unsafe_hygiene: true,
        atomics: !bench && !analyzer,
        hot_path: hot,
        panic_free: serving_path || dense_kernel,
        locks: serving_path,
        lock_order: rel == "crates/cerl-core/src/serving.rs",
        taxonomy: !bench && !analyzer,
        obs_stage: serving_path,
    })
}

/// Walk the workspace under `root`, analyze every in-scope file, and
/// return all findings plus the number of files scanned.
pub fn analyze_workspace(root: &Path) -> io::Result<(Vec<Finding>, usize)> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut krates: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        krates.sort();
        for k in krates {
            collect_rs(&k.join("src"), &mut files)?;
        }
    }
    files.sort();

    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let Some(scope) = scope_for(&rel) else {
            continue;
        };
        let file = scan_file(path, &rel)?;
        scanned += 1;
        findings.extend(rules::analyze(&file, &scope));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok((findings, scanned))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Render findings as the `cerl-analyze/v1` JSON summary.
pub fn render_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut s = String::from("{\n  \"schema\": \"cerl-analyze/v1\",\n");
    s.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    s.push_str(&format!("  \"total\": {},\n", findings.len()));
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for f in findings {
        match counts.iter_mut().find(|(r, _)| *r == f.rule) {
            Some((_, n)) => *n += 1,
            None => counts.push((f.rule, 1)),
        }
    }
    counts.sort();
    s.push_str("  \"counts\": {");
    for (i, (rule, n)) in counts.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{rule}\": {n}"));
    }
    s.push_str("},\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{}\n",
            json_escape(&f.file),
            f.line,
            f.rule,
            json_escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
