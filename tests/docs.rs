//! Documentation guards: every `FUSEDMM_*` environment variable the
//! workspace reads must be documented in `docs/TUNING.md`, and every
//! relative markdown link in `README.md` / `docs/*.md` must resolve.
//!
//! These are grep-level checks on the source tree, so a new knob (or a
//! renamed doc file) fails CI until the documentation catches up.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Variables that appear as string literals but are deliberately not
/// user-facing knobs.
const ALLOWLIST: &[&str] = &[
    // Test fixture asserting the env_usize default fallback.
    "FUSEDMM_DOES_NOT_EXIST",
];

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR of the façade crate IS the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_sources(root: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(root).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            // Vendored stand-ins and build output are not ours to
            // document; .git is noise.
            if name == "vendor" || name == "target" || name.starts_with('.') {
                continue;
            }
            rust_sources(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Every FUSEDMM-prefixed string literal in `text` — quoted
/// occurrences are exactly the ones that reach `std::env::var`, while
/// prose mentions in doc comments are unquoted and skipped.
fn quoted_vars(text: &str, vars: &mut BTreeSet<String>) {
    for (i, _) in text.match_indices("\"FUSEDMM_") {
        let rest = &text[i + 1..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
            .collect();
        // A trailing underscore means a prefix fragment (e.g. a
        // family mention like "FUSEDMM_ADMIT_"), not a variable.
        if name.len() > "FUSEDMM_".len() && !name.ends_with('_') {
            vars.insert(name);
        }
    }
}

#[test]
fn every_env_var_read_is_documented_in_tuning_md() {
    let root = repo_root();
    let tuning = fs::read_to_string(root.join("docs/TUNING.md"))
        .expect("docs/TUNING.md must exist — it is the env-var reference");
    let mut files = Vec::new();
    rust_sources(&root, &mut files);
    assert!(files.len() > 50, "source scan looks broken: {} files", files.len());
    let mut vars = BTreeSet::new();
    for file in &files {
        quoted_vars(&fs::read_to_string(file).unwrap(), &mut vars);
    }
    assert!(
        vars.contains("FUSEDMM_FORCE_BACKEND") && vars.contains("FUSEDMM_FAULT_PLAN"),
        "scan failed to find known variables: {vars:?}"
    );
    let undocumented: Vec<&String> = vars
        .iter()
        .filter(|v| !ALLOWLIST.contains(&v.as_str()) && !tuning.contains(&format!("`{v}`")))
        .collect();
    assert!(
        undocumented.is_empty(),
        "environment variables read in the workspace but missing from docs/TUNING.md \
         (add a table row, or extend the allowlist in tests/docs.rs if it is not a \
         user-facing knob): {undocumented:?}"
    );
}

/// Relative links out of `](...)` markdown syntax; absolute URLs and
/// in-page anchors are skipped.
fn relative_links(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, _) in text.match_indices("](") {
        let rest = &text[i + 2..];
        let Some(end) = rest.find(')') else { continue };
        let target = rest[..end].trim();
        if target.is_empty()
            || target.starts_with('#')
            || target.contains("://")
            || target.starts_with("mailto:")
        {
            continue;
        }
        // Strip an anchor and any title suffix (`path "title"`).
        let path = target.split(['#', ' ']).next().unwrap();
        if !path.is_empty() {
            out.push(path.to_string());
        }
    }
    out
}

#[test]
fn markdown_links_in_readme_and_docs_resolve() {
    let root = repo_root();
    let mut pages = vec![root.join("README.md")];
    for entry in fs::read_dir(root.join("docs")).expect("docs/ directory") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "md") {
            pages.push(path);
        }
    }
    assert!(pages.len() >= 3, "expected README + at least two docs pages: {pages:?}");
    let mut broken = Vec::new();
    for page in &pages {
        let text = fs::read_to_string(page).unwrap();
        let base = page.parent().unwrap();
        for link in relative_links(&text) {
            if !base.join(&link).exists() {
                broken.push(format!("{}: {link}", page.display()));
            }
        }
    }
    assert!(broken.is_empty(), "broken relative markdown links: {broken:?}");
}
