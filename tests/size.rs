//! The size ratchet: the tracked counts of the source tree may not rise
//! above their ceilings in `tests/size_ceilings.txt`. A change that
//! lowers a count lowers its ceiling with it; a change that must raise
//! one raises the ceiling and says why.
//!
//! The library crates' `src/` must also name no environment variable
//! but `FUSEDMM_FORCE_BACKEND`: an engine's behaviour follows from its
//! config alone.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const LIBRARY_CRATES: [&str; 10] =
    ["apps", "baseline", "cache", "core", "graph", "ops", "perf", "rpc", "serve", "sparse"];

fn read(path: &str) -> String {
    fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(path)).expect(path)
}

/// Push the text of every `.rs` file under `dir` onto `out`.
fn sources(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("a source directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() && !path.ends_with("target") {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(fs::read_to_string(&path).expect("a readable source"));
        }
    }
}

fn sources_under(dir: &str) -> Vec<String> {
    let mut out = Vec::new();
    sources(&Path::new(env!("CARGO_MANIFEST_DIR")).join(dir), &mut out);
    out
}

/// Lines of `.rs` files under `dir`, as `wc -l` counts them.
fn rs_lines(dir: &str) -> usize {
    sources_under(dir).iter().map(|s| s.matches('\n').count()).sum()
}

/// The text of `item`'s braces in `text`, up to the first line that is
/// a lone `}`.
fn body<'a>(text: &'a str, item: &str) -> &'a str {
    let rest = &text[text.find(item).expect(item) + item.len()..];
    &rest[..rest.find("\n}").expect("a closing brace")]
}

/// Names the façade prelude re-exports: one per leaf of each `pub use`.
fn prelude_items() -> usize {
    let lib = read("src/lib.rs");
    let stmts = body(&lib, "pub mod prelude {").split(';');
    let leaves = |s: &str| match (s.find('{'), s.rfind('}')) {
        (Some(open), Some(close)) => {
            s[open + 1..close].split(',').filter(|l| !l.trim().is_empty()).count()
        }
        _ => 1,
    };
    stmts.filter_map(|s| s.trim_start().strip_prefix("pub use ")).map(leaves).sum()
}

fn engine_config_fields() -> usize {
    let engine = read("crates/serve/src/engine.rs");
    body(&engine, "pub struct EngineConfig {")
        .lines()
        .filter(|l| l.trim_start().starts_with("pub "))
        .count()
}

/// Every distinct `"FUSEDMM_…"` string literal in the library crates.
fn library_env_vars() -> BTreeSet<String> {
    let mut vars = BTreeSet::new();
    for krate in LIBRARY_CRATES {
        for text in sources_under(&format!("crates/{krate}/src")) {
            for (i, _) in text.match_indices("\"FUSEDMM_") {
                let name =
                    text[i + 1..].chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_');
                vars.insert(name.collect());
            }
        }
    }
    vars
}

#[test]
fn no_tracked_count_is_over_its_ceiling() {
    let tuning = read("docs/TUNING.md");
    let counts = [
        ("crates_rs_lines", rs_lines("crates")),
        ("tests_rs_lines", rs_lines("tests")),
        ("vendor_rs_lines", rs_lines("vendor")),
        ("prelude_items", prelude_items()),
        ("tuning_rows", tuning.lines().filter(|l| l.starts_with("| `FUSEDMM_")).count()),
        ("engine_config_fields", engine_config_fields()),
        ("library_env_vars", library_env_vars().len()),
    ];
    let ceilings = read("tests/size_ceilings.txt");
    let ceiling = |name: &str| -> usize {
        let line = ceilings.lines().find_map(|l| l.strip_prefix(name)?.trim().strip_prefix('='));
        line.unwrap_or_else(|| panic!("no ceiling for {name}")).trim().parse().expect("a count")
    };
    let mut over = Vec::new();
    for (name, count) in counts {
        let ceiling = ceiling(name);
        println!("{name}: {count} (ceiling {ceiling})");
        if count > ceiling {
            over.push(format!("{name} {count} > {ceiling}"));
        }
    }
    assert!(over.is_empty(), "over the ceilings in tests/size_ceilings.txt: {over:?}");
}

#[test]
fn the_library_reads_only_the_backend_override_from_the_environment() {
    let vars: Vec<String> = library_env_vars().into_iter().collect();
    assert_eq!(vars, ["FUSEDMM_FORCE_BACKEND"], "environment variables in library code");
}
