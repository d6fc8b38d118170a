//! Paper-style table printing for the repro binaries.

use fusedmm_perf::registry::json_escape;

use crate::methods::CellResult;

/// One-row table identifying a benchmark run: git commit, CPU
/// architecture and detected ISA features, the SIMD backend the
/// process executes, and the rayon pool width. Benches prepend it as a
/// `meta` section of their [`JsonReport`] so artifacts uploaded by CI
/// are comparable across commits and machines.
pub fn run_meta() -> Table {
    let sha = std::env::var("GITHUB_SHA")
        .ok()
        .filter(|s| !s.is_empty())
        .or_else(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
        })
        .unwrap_or_else(|| "unknown".into());
    let cpu = fusedmm_core::cpu_features();
    let features = cpu
        .detected
        .iter()
        .map(|(name, present)| format!("{name}={}", if *present { "yes" } else { "no" }))
        .collect::<Vec<_>>()
        .join(" ");
    let mut table = Table::new(&["git", "arch", "features", "backend", "threads"]);
    table.row(vec![
        sha,
        cpu.arch.to_string(),
        if features.is_empty() { "-".into() } else { features },
        cpu.backend.to_string(),
        rayon::current_num_threads().to_string(),
    ]);
    table
}

/// Format one table cell: seconds with three decimals, or the paper's
/// `×` for out-of-memory entries.
pub fn fmt_cell(r: &CellResult) -> String {
    match r {
        CellResult::Time(t) => format!("{:.3}", t.avg),
        CellResult::OutOfMemory { .. } => "x".to_string(),
    }
}

/// Format a speedup ratio like the paper's "Speedup" rows; `-` when the
/// baseline went out of memory.
pub fn fmt_speedup(baseline: &CellResult, ours: &CellResult) -> String {
    match (baseline.avg(), ours.avg()) {
        (Some(b), Some(o)) if o > 0.0 => format!("{:.3}", b / o),
        _ => "-".to_string(),
    }
}

/// A fixed-width text table builder.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a data row (padded/truncated to the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..ncols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Render as a JSON array of row objects keyed by column header —
    /// the machine-readable twin of [`Table::render`]. Cell values stay
    /// strings (they are already formatted for the text table), so the
    /// schema is stable across sweeps with heterogeneous columns.
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (r, row) in self.rows.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            out.push('{');
            for (c, header) in self.header.iter().enumerate() {
                if c > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", json_escape(header), json_escape(&row[c])));
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// A machine-readable benchmark report: named sections, each one
/// [`Table`], serialized as a single JSON object. The bench-smoke CI
/// job writes one per run (`FUSEDMM_BENCH_JSON=<path>`) and archives it
/// as a workflow artifact, seeding a perf trajectory that later runs
/// can diff against.
#[derive(Debug, Default)]
pub struct JsonReport {
    sections: Vec<(String, String)>,
}

impl JsonReport {
    /// An empty report.
    pub fn new() -> Self {
        JsonReport::default()
    }

    /// The output path from the `FUSEDMM_BENCH_JSON` environment
    /// variable, when set.
    pub fn env_path() -> Option<std::path::PathBuf> {
        std::env::var("FUSEDMM_BENCH_JSON").ok().filter(|p| !p.is_empty()).map(Into::into)
    }

    /// Append `table` as section `name`.
    pub fn section(&mut self, name: &str, table: &Table) {
        self.sections.push((name.to_string(), table.render_json()));
    }

    /// Serialize the whole report.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, json)) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(name), json));
        }
        out.push('}');
        out
    }

    /// Write the report to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_perf::timer::TimingStats;

    fn t(avg: f64) -> CellResult {
        CellResult::Time(TimingStats { avg, min: avg, max: avg, reps: 1 })
    }

    #[test]
    fn cells_format_like_the_paper() {
        assert_eq!(fmt_cell(&t(0.2263)), "0.226");
        assert_eq!(fmt_cell(&CellResult::OutOfMemory { required: 1 }), "x");
    }

    #[test]
    fn speedup_handles_oom() {
        assert_eq!(fmt_speedup(&t(1.0), &t(0.25)), "4.000");
        assert_eq!(fmt_speedup(&CellResult::OutOfMemory { required: 1 }, &t(0.1)), "-");
    }

    #[test]
    fn table_renders_aligned() {
        let mut tb = Table::new(&["graph", "time"]);
        tb.row(vec!["Orkut".into(), "0.346".into()]);
        tb.row(vec!["Yt".into(), "12.5".into()]);
        let s = tb.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("graph"));
        assert!(lines[2].ends_with("0.346"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut tb = Table::new(&["a", "b", "c"]);
        tb.row(vec!["1".into()]);
        assert!(tb.render().lines().count() == 3);
    }

    #[test]
    fn json_rows_are_keyed_by_header_and_escaped() {
        let mut tb = Table::new(&["graph", "p99 \"us\""]);
        tb.row(vec!["Orkut\n".into(), "12.5".into()]);
        assert_eq!(tb.render_json(), r#"[{"graph":"Orkut\n","p99 \"us\"":"12.5"}]"#);
        assert_eq!(Table::new(&["x"]).render_json(), "[]");
    }

    #[test]
    fn json_report_collects_named_sections() {
        let mut t1 = Table::new(&["a"]);
        t1.row(vec!["1".into()]);
        let mut report = JsonReport::new();
        report.section("first", &t1);
        report.section("empty", &Table::new(&["b"]));
        assert_eq!(report.render(), r#"{"first":[{"a":"1"}],"empty":[]}"#);
    }
}
