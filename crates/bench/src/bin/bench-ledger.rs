//! The bench ledger: run the repo benchmark on two builds in alternating
//! pairs, keep every run's end-to-end values in one `BENCH_<sha>.json`
//! per side, and compare two such files against `BENCHMARK.json`'s
//! bounds.
//!
//! ```text
//! bench-ledger run <parent-bin> <change-bin> --pairs N --seed S
//! bench-ledger compare <a.json> <b.json>
//! ```
//!
//! Both commands start in the repo root: they read `./BENCHMARK.json`
//! for the workloads, the run length and the bounds, and `run` writes
//! its files there.
//!
//! `run` takes two benchmark binaries, each built in its own checkout
//! (`cargo build --release --manifest-path benchmark/Cargo.toml` leaves
//! it at `benchmark/target/release/fusedmm-benchmark`). Each run starts
//! in the root of the checkout its binary was built in, and is named by
//! that checkout's short commit hash. Pair `i` runs every workload once
//! on each side for `run_seconds`, the parent first when `i` is even and
//! the change first when it is odd, so slow drift of the machine falls
//! on both sides. Both files are rewritten after every pair: a run that
//! is cut short keeps the pairs it finished. `meta` records the binary
//! (relative to its checkout) and the arguments each run was given,
//! `nproc`, the share of CPU time stolen by the host over the run
//! (`/proc/stat`) and the transparent-huge-page mode.
//!
//! `compare` refuses two files run at different seeds or lengths. It
//! prints, per workload and end-to-end metric, each side's median and
//! quartiles over its correct runs, the pairs the second file won out
//! of all pairs run, and a verdict:
//! - `WORSE`: the median is worse than the first file's by more than
//!   the metric's bound, or the second file has no correct run;
//! - `unresolved`: a side's quartile spread is wider than the bound,
//!   unless every run of the second file beats every run of the first;
//! - `gain`: the second file won at least nine pairs in ten, its median
//!   is better by more than the first file's quartile spread, and its
//!   runs fail no more often than the first file's;
//! - `flat`: none of these.
//!
//! A pair where either side erred or was not correct is a pair the
//! second file did not win (ties count for neither). Per workload a last
//! line gives each side's incorrect runs and failed-call share, `WORSE`
//! when the second file's are higher.
//!
//! Every verdict is "layout unchecked": each side is one build, so a
//! change in code placement alone cannot be told from a change in code.
//! Layer metrics (`--trace 1`) are not recorded.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use fusedmm_perf::registry::json_escape;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage (from the repo root):\n  \
     bench-ledger run <parent-bin> <change-bin> --pairs N --seed S\n  \
     bench-ledger compare <a.json> <b.json>";

/// The benchmark's declaration, read from the directory the ledger
/// starts in.
const SPEC: &str = "BENCHMARK.json";

// ---------------------------------------------------------------- JSON

/// A parsed JSON value. Objects keep their keys in file order.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    /// Compact text. A non-finite number is written as `null`.
    fn render(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) if v.is_finite() => write!(out, "{v}").expect("write to a String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).render(out);
                    out.push_str(": ");
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Parse one JSON document (RFC 8259, except that a `\u` escape must
/// name a character outside the surrogate range: the ledger writes `\u`
/// only for control characters).
fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), at: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) != Some(&byte) {
            return Err(self.error(&format!("expected '{}'", byte as char)));
        }
        self.at += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.bytes[self.at..].starts_with(word.as_bytes()) {
            return Err(self.error("unknown literal"));
        }
        self.at += word.len();
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => Err(self.error("unexpected end")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.sequence(b']', Self::value).map(Json::Arr),
            Some(b'{') => self
                .sequence(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            Some(_) => self.number(),
        }
    }

    /// The items of an array or object, from its opening bracket to
    /// `close`.
    fn sequence<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&close) {
            self.at += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(&b) if b == close => {
                    self.at += 1;
                    return Ok(items);
                }
                _ => return Err(self.error(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self.bytes.get(self.at).is_some_and(|b| b"+-.eE0123456789".contains(b)) {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII digits");
        text.parse().map(Json::Num).map_err(|_| self.error(&format!("bad number {text:?}")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.at;
            while self.bytes.get(self.at).is_some_and(|&b| b != b'"' && b != b'\\') {
                self.at += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|_| self.error("invalid UTF-8"))?,
            );
            match self.bytes.get(self.at) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(_) => {
                    let escape =
                        *self.bytes.get(self.at + 1).ok_or_else(|| self.error("bad escape"))?;
                    self.at += 2;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4).unwrap_or_default();
                            self.at += 4;
                            std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad or surrogate \\u escape"))?
                        }
                        _ => return Err(self.error("bad escape")),
                    });
                }
            }
        }
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

// ------------------------------------------------------ BENCHMARK.json

/// What the ledger reads from `BENCHMARK.json`.
struct Spec {
    seconds: f64,
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

/// One end-to-end metric and the share of the parent's median by which
/// it may worsen.
struct Metric {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn read_spec(path: &Path) -> Result<Spec, String> {
    let spec = read_json(path)?;
    let bad = |what: &str| format!("{}: {what}", path.display());
    let seconds =
        spec.get("run_seconds").and_then(Json::num).ok_or_else(|| bad("no run_seconds"))?;
    let workloads: Vec<String> = spec
        .get("workloads")
        .map_or(&[][..], Json::arr)
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::str).map(str::to_owned))
        .collect();
    let mut metrics = Vec::new();
    for m in spec.get("end_to_end").map_or(&[][..], Json::arr) {
        let field =
            |key: &str| m.get(key).ok_or_else(|| bad(&format!("end_to_end entry without {key}")));
        metrics.push(Metric {
            name: field("name")?.str().ok_or_else(|| bad("metric name"))?.to_owned(),
            higher_is_better: field("better")?.str() == Some("higher"),
            bound: field("bound")?.num().ok_or_else(|| bad("metric bound"))?,
        });
    }
    if workloads.is_empty() || metrics.is_empty() {
        return Err(bad("needs workloads and end_to_end metrics"));
    }
    Ok(Spec { seconds, workloads, metrics })
}

// ----------------------------------------------------------------- run

/// Options after the positional arguments: `--key value` pairs, each
/// key one of `allowed`.
fn options(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| allowed.contains(k))
            .ok_or_else(|| format!("unexpected argument {flag}\n{USAGE}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(key.to_owned(), value.clone());
    }
    Ok(out)
}

fn required<T: std::str::FromStr>(opts: &BTreeMap<String, String>, key: &str) -> Result<T, String> {
    let v = opts.get(key).ok_or_else(|| format!("--{key} is required\n{USAGE}"))?;
    v.parse().map_err(|_| format!("--{key}: cannot parse {v:?}"))
}

/// One side of a run: a benchmark binary and the checkout it was built in.
struct Side {
    label: &'static str,
    bin: PathBuf,
    /// Where the binary runs: its checkout's root (the benchmark writes
    /// sockets and traces under `benchmark/out` there).
    root: PathBuf,
    sha: String,
    dirty: bool,
    runs: Vec<Json>,
}

fn git(dir: &Path, args: &[&str]) -> Option<String> {
    let out =
        Command::new("git").arg("-C").arg(dir).args(args).stderr(Stdio::null()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn side(label: &'static str, bin: &str) -> Result<Side, String> {
    let bin = std::fs::canonicalize(bin).map_err(|e| format!("{bin}: {e}"))?;
    let dir = bin.parent().expect("a file has a parent directory");
    let root = git(dir, &["rev-parse", "--show-toplevel"])
        .map(PathBuf::from)
        .ok_or_else(|| format!("{} is not inside a git checkout", bin.display()))?;
    let sha = git(&root, &["rev-parse", "--short", "HEAD"]).ok_or("no HEAD commit")?;
    let dirty = git(&root, &["status", "--porcelain", "--untracked-files=no"])
        .is_none_or(|s| !s.is_empty());
    Ok(Side { label, bin, root, sha, dirty, runs: Vec::new() })
}

/// The aggregate `steal` jiffies of `/proc/stat`, if readable.
fn steal_jiffies() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Share of all CPUs' time stolen between two readings taken `wall_s`
/// apart (the kernel counts in `USER_HZ` = 100 ticks per second).
fn steal_frac(before: Option<u64>, after: Option<u64>, wall_s: f64, nproc: usize) -> Json {
    match (before, after) {
        (Some(b), Some(a)) if wall_s > 0.0 => {
            Json::Num(a.saturating_sub(b) as f64 / 100.0 / (wall_s * nproc as f64))
        }
        _ => Json::Null,
    }
}

/// The transparent-huge-page mode (the bracketed word), if readable.
fn thp_mode() -> Json {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .ok()
        .and_then(|s| Some(s.split('[').nth(1)?.split(']').next()?.to_owned()))
        .map_or(Json::Null, Json::Str)
}

struct RunPlan {
    seed: u64,
    seconds: f64,
    nproc: usize,
}

/// The arguments the benchmark binary gets for one run of `workload`.
fn bench_args(workload: &str, plan: &RunPlan) -> Vec<String> {
    let (seed, seconds) = (plan.seed.to_string(), plan.seconds.to_string());
    ["--workload", workload, "--seed", &seed, "--seconds", &seconds, "--trace", "0"]
        .map(str::to_owned)
        .to_vec()
}

/// One benchmark run of `workload` on `side`, as the ledger stores it.
fn run_once(side: &Side, workload: &str, plan: &RunPlan, pair: usize, first: bool) -> Json {
    let steal0 = steal_jiffies();
    let t0 = Instant::now();
    let out = Command::new(&side.bin)
        .args(bench_args(workload, plan))
        .current_dir(&side.root)
        .stdin(Stdio::null())
        .stderr(Stdio::piped())
        .output();
    let wall_s = t0.elapsed().as_secs_f64();
    let mut fields = vec![
        ("workload", Json::Str(workload.to_owned())),
        ("pair", Json::Num(pair as f64)),
        ("first", Json::Bool(first)),
        ("wall_s", Json::Num(wall_s)),
        ("steal_frac", steal_frac(steal0, steal_jiffies(), wall_s, plan.nproc)),
    ];
    let result = out.map_err(|e| e.to_string()).and_then(|out| {
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
        parse_json(last).map_err(|e| {
            let stderr = String::from_utf8_lossy(&out.stderr);
            format!(
                "{} ({e}); stderr tail: {}",
                out.status,
                stderr.lines().last().unwrap_or_default()
            )
        })
    });
    match result {
        Ok(line) => {
            for key in ["correct", "attempted", "failed"] {
                fields.push((key, line.get(key).cloned().unwrap_or(Json::Null)));
            }
            let metrics = line.get("metrics").map_or(&[][..], Json::fields);
            let values = metrics
                .iter()
                .map(|(name, m)| (name.clone(), m.get("value").cloned().unwrap_or(Json::Null)))
                .collect();
            fields.push(("metrics", Json::Obj(values)));
        }
        Err(e) => {
            fields.push(("correct", Json::Bool(false)));
            fields.push(("error", Json::Str(e)));
        }
    }
    obj(fields)
}

/// Rewrite `BENCH_<sha>.json` for `side` in the current directory:
/// `meta`, then one run per line.
fn write_ledger(side: &Side, other: &Side, meta: &[(&str, Json)]) -> Result<PathBuf, String> {
    // The binary as its checkout names it; `args` holds `<workload>`
    // where each run names its own.
    let bin = side.bin.strip_prefix(&side.root).unwrap_or(&side.bin);
    let mut fields = vec![
        ("sha", Json::Str(side.sha.clone())),
        ("side", Json::Str(side.label.to_owned())),
        ("other_sha", Json::Str(other.sha.clone())),
        ("dirty", Json::Bool(side.dirty)),
        ("bin", Json::Str(bin.display().to_string())),
    ];
    fields.extend(meta.iter().cloned());
    let mut text = String::from("{\"meta\": ");
    obj(fields).render(&mut text);
    text.push_str(",\n\"runs\": [\n");
    for (i, run) in side.runs.iter().enumerate() {
        if i > 0 {
            text.push_str(",\n");
        }
        run.render(&mut text);
    }
    text.push_str("\n]}\n");
    let name = if side.sha == other.sha {
        format!("BENCH_{}_{}.json", side.sha, side.label)
    } else {
        format!("BENCH_{}.json", side.sha)
    };
    let path = PathBuf::from(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run(args: &[String]) -> Result<(), String> {
    let [parent, change, rest @ ..] = args else { return Err(USAGE.into()) };
    let opts = options(rest, &["pairs", "seed"])?;
    let spec = read_spec(Path::new(SPEC))?;
    let pairs: usize = required(&opts, "pairs")?;
    let seed: u64 = required(&opts, "seed")?;
    let mut sides = [side("parent", parent)?, side("change", change)?];
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = RunPlan { seed, seconds: spec.seconds, nproc };
    let started = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let (steal0, t0) = (steal_jiffies(), Instant::now());
    for pair in 0..pairs {
        for workload in &spec.workloads {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for (k, &s) in order.iter().enumerate() {
                let run = run_once(&sides[s], workload, &plan, pair, k == 0);
                let side = &mut sides[s];
                eprintln!(
                    "pair {}/{pairs} {workload} {} ({}): {}",
                    pair + 1,
                    side.label,
                    side.sha,
                    summary(&run)
                );
                side.runs.push(run);
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let meta = [
            (
                "args",
                Json::Arr(bench_args("<workload>", &plan).into_iter().map(Json::Str).collect()),
            ),
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(plan.seconds)),
            ("pairs", Json::Num((pair + 1) as f64)),
            ("workloads", Json::Arr(spec.workloads.iter().cloned().map(Json::Str).collect())),
            ("layouts", Json::Num(1.0)),
            ("nproc", Json::Num(nproc as f64)),
            ("thp", thp_mode()),
            ("steal_frac", steal_frac(steal0, steal_jiffies(), wall_s, nproc)),
            ("started_unix", Json::Num(started as f64)),
            ("wall_s", Json::Num(wall_s)),
        ];
        let [a, b] = &sides;
        let (pa, pb) = (write_ledger(a, b, &meta)?, write_ledger(b, a, &meta)?);
        if pair + 1 == pairs {
            println!("wrote {} and {}", pa.display(), pb.display());
        }
    }
    Ok(())
}

/// One line per run for the progress log.
fn summary(run: &Json) -> String {
    if let Some(e) = run.get("error").and_then(Json::str) {
        return format!("FAILED: {e}");
    }
    let mut line = String::new();
    for (name, v) in run.get("metrics").map_or(&[][..], Json::fields) {
        write!(line, "{name}={} ", v.num().map_or("-".into(), fmt_value))
            .expect("write to a String");
    }
    if run.get("correct") != Some(&Json::Bool(true)) {
        line.push_str("NOT CORRECT");
    }
    line
}

// ------------------------------------------------------------- compare

/// Median and quartiles by linear interpolation between order
/// statistics; `values` must not be empty.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// The runs of `workload` in a ledger file.
fn runs_of<'a>(ledger: &'a Json, workload: &'a str) -> impl Iterator<Item = &'a Json> {
    let runs = ledger.get("runs").map_or(&[][..], Json::arr);
    runs.iter().filter(move |r| r.get("workload").and_then(Json::str) == Some(workload))
}

/// One side's values of a metric on one workload, keyed by pair index:
/// `None` for a run that erred, was not correct or lacks the metric.
type Series = BTreeMap<u64, Option<f64>>;

/// The values of `metric` for `workload` in a ledger file.
fn series(ledger: &Json, workload: &str, metric: &str) -> Series {
    runs_of(ledger, workload)
        .filter_map(|r| {
            let pair = r.get("pair")?.num()? as u64;
            let correct = r.get("correct") == Some(&Json::Bool(true));
            let value = r.get("metrics").and_then(|m| m.get(metric)?.num()).filter(|_| correct);
            Some((pair, value))
        })
        .collect()
}

/// The values a series holds, without its failed runs.
fn measured(s: &Series) -> Vec<f64> {
    s.values().flatten().copied().collect()
}

/// How `b` reads against `a` on one metric: the pairs it won out of
/// all pairs either side ran, and the verdict.
#[derive(Debug, PartialEq)]
struct Verdict {
    won: usize,
    pairs: usize,
    word: &'static str,
}

/// The verdict on one metric. `b_fails_more` says that `b`'s runs on
/// this workload fail more often than `a`'s, which rules out a gain.
fn verdict(
    a: &Series,
    b: &Series,
    higher_is_better: bool,
    bound: f64,
    b_fails_more: bool,
) -> Verdict {
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let pairs = a.keys().chain(b.keys()).collect::<BTreeSet<_>>().len();
    let won = a
        .iter()
        .filter(|&(p, va)| match (va, b.get(p)) {
            (Some(va), Some(Some(vb))) => better(*vb, *va),
            _ => false,
        })
        .count();
    let (av, bv) = (measured(a), measured(b));
    if bv.is_empty() || av.is_empty() {
        let word = if bv.is_empty() && !av.is_empty() { "WORSE" } else { "unresolved" };
        return Verdict { won, pairs, word };
    }
    let [a1, am, a3] = quartiles(&av);
    let [b1, bm, b3] = quartiles(&bv);
    // How far `b`'s median is worse than `a`'s, as a share of `a`'s.
    let worse_by = if higher_is_better { (am - bm) / am } else { (bm - am) / am };
    let all_better = av.iter().all(|&x| bv.iter().all(|&y| better(y, x)));
    let wide = (a3 - a1) > bound * am.abs() || (b3 - b1) > bound * bm.abs();
    let word = if worse_by > bound {
        "WORSE"
    } else if wide && !all_better {
        "unresolved"
    } else if better(bm, am) && (bm - am).abs() > a3 - a1 && 10 * won >= 9 * pairs && !b_fails_more
    {
        "gain"
    } else {
        "flat"
    };
    Verdict { won, pairs, word }
}

/// Four significant digits, with k / M for large values; small whole
/// numbers as they are.
fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if v.fract() == 0.0 && a < 1e4 {
        format!("{v}")
    } else if a >= 1e6 {
        format!("{:.3}M", v / 1e6)
    } else if a >= 1e4 {
        format!("{:.1}k", v / 1e3)
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

/// How often one side's runs of a workload failed.
struct Failures {
    /// Runs that erred or were not correct.
    bad: usize,
    runs: usize,
    /// Failed calls over attempted calls, summed over the runs.
    failed_share: f64,
}

impl Failures {
    fn of(ledger: &Json, workload: &str) -> Failures {
        let runs: Vec<&Json> = runs_of(ledger, workload).collect();
        let bad = runs.iter().filter(|r| r.get("correct") != Some(&Json::Bool(true))).count();
        let sum = |key: &str| runs.iter().filter_map(|r| r.get(key)?.num()).sum::<f64>();
        let attempted = sum("attempted");
        let failed_share = if attempted > 0.0 { sum("failed") / attempted } else { 0.0 };
        Failures { bad, runs: runs.len(), failed_share }
    }

    /// Whether `self` fails more often than `other`, by share of
    /// incorrect runs or by share of failed calls.
    fn more_than(&self, other: &Failures) -> bool {
        self.bad * other.runs > other.bad * self.runs || self.failed_share > other.failed_share
    }
}

/// Refuse two files whose runs differ in what was asked of them.
fn check_same_runs(a: &Json, b: &Json) -> Result<(), String> {
    for key in ["seed", "seconds"] {
        let field = |l: &Json| l.get("meta").and_then(|m| m.get(key)).cloned();
        let (va, vb) = (field(a), field(b));
        if va.is_none() || va != vb {
            return Err(format!("the two files differ in meta.{key}: {va:?} vs {vb:?}"));
        }
    }
    Ok(())
}

fn compare(args: &[String]) -> Result<(), String> {
    let [a_path, b_path, rest @ ..] = args else { return Err(USAGE.into()) };
    options(rest, &[])?;
    let spec = read_spec(Path::new(SPEC))?;
    let (a, b) = (read_json(Path::new(a_path))?, read_json(Path::new(b_path))?);
    check_same_runs(&a, &b)?;
    let label = |l: &Json| {
        let mut s = String::new();
        for (k, v) in l.get("meta").map_or(&[][..], Json::fields) {
            if ["sha", "seed", "pairs", "nproc", "thp", "steal_frac"].contains(&k.as_str()) {
                match v {
                    Json::Str(text) => write!(s, " {k}={text}"),
                    Json::Num(x) => write!(s, " {k}={}", fmt_value(*x)),
                    _ => write!(s, " {k}=?"),
                }
                .expect("write to a String");
            }
        }
        s
    };
    println!("a: {a_path}{}", label(&a));
    println!("b: {b_path}{}", label(&b));
    println!("layout unchecked: one build per side");
    println!(
        "{:<17} {:<12} {:>10} {:>21} {:>10} {:>21} {:>7} {:>6}  verdict",
        "workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "b/a", "won"
    );
    let mut compared = 0;
    for workload in &spec.workloads {
        let (fa, fb) = (Failures::of(&a, workload), Failures::of(&b, workload));
        let b_fails_more = fb.more_than(&fa);
        for m in &spec.metrics {
            let (sa, sb) = (series(&a, workload, &m.name), series(&b, workload, &m.name));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            compared += 1;
            let v = verdict(&sa, &sb, m.higher_is_better, m.bound, b_fails_more);
            let (va, vb) = (measured(&sa), measured(&sb));
            let (qa, qb) = (
                (!va.is_empty()).then(|| quartiles(&va)),
                (!vb.is_empty()).then(|| quartiles(&vb)),
            );
            let median = |q: Option<[f64; 3]>| q.map_or("-".into(), |q| fmt_value(q[1]));
            let range = |q: Option<[f64; 3]>| {
                q.map_or("-".into(), |q| format!("[{}, {}]", fmt_value(q[0]), fmt_value(q[2])))
            };
            let ratio = match (qa, qb) {
                (Some(qa), Some(qb)) => format!("{:.3}", qb[1] / qa[1]),
                _ => "-".into(),
            };
            println!(
                "{:<17} {:<12} {:>10} {:>21} {:>10} {:>21} {:>7} {:>6}  {} (bound {}%)",
                workload,
                m.name,
                median(qa),
                range(qa),
                median(qb),
                range(qb),
                ratio,
                format!("{}/{}", v.won, v.pairs),
                v.word,
                m.bound * 100.0
            );
        }
        if fa.runs + fb.runs > 0 {
            println!(
                "{workload:<17} runs not correct: a {}/{}, b {}/{}; failed calls: a {:.4}%, b {:.4}%  {}",
                fa.bad,
                fa.runs,
                fb.bad,
                fb.runs,
                fa.failed_share * 100.0,
                fb.failed_share * 100.0,
                if b_fails_more { "WORSE" } else { "ok" }
            );
        }
    }
    if compared == 0 {
        return Err("the two files share no workload and metric".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_through_render() {
        let text = r#"{"a": [1, -2.5, 3e2, true, false, null], "s": "q\"\\\n\u00e9\u0001\u00ff", "o": {}}"#;
        let v = parse_json(text).expect("valid JSON");
        assert_eq!(v.get("a").map(Json::arr).map(<[Json]>::len), Some(6));
        assert_eq!(v.get("a").unwrap().arr()[2], Json::Num(300.0));
        assert_eq!(v.get("s").and_then(Json::str), Some("q\"\\\né\u{1}ÿ"));
        let mut out = String::new();
        v.render(&mut out);
        assert_eq!(parse_json(&out), Ok(v));
    }

    #[test]
    fn malformed_json_is_refused() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "\"open", "01x", "[1] 2", "\"\\ud83d\\ude00\""] {
            assert!(parse_json(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn the_repo_benchmark_spec_reads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let spec = read_spec(&path).expect("BENCHMARK.json");
        assert!(spec.workloads.iter().any(|w| w == "infer_full"));
        let rows = spec.metrics.iter().find(|m| m.name == "rows_per_s").expect("rows_per_s");
        assert!(rows.higher_is_better && rows.bound > 0.0);
        assert!(spec.seconds > 0.0);
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [1.25, 1.5, 1.75]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    fn numbered(v: &[f64]) -> Series {
        v.iter().enumerate().map(|(i, &x)| (i as u64, Some(x))).collect()
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let a = numbered(&[100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]);
        // 20 % faster in every pair: a gain for a higher-is-better metric.
        let up = numbered(&measured(&a).iter().map(|x| x * 1.2).collect::<Vec<_>>());
        assert_eq!(
            verdict(&a, &up, true, 0.25, false),
            Verdict { won: 10, pairs: 10, word: "gain" }
        );
        // The same numbers for a lower-is-better metric are 20 % worse:
        // inside a 25 % bound, outside a 10 % one.
        assert_eq!(verdict(&a, &up, false, 0.25, false).word, "flat");
        assert_eq!(verdict(&a, &up, false, 0.10, false).word, "WORSE");
        // Better in 8 of 10 pairs is no gain.
        let mut mixed = up.clone();
        mixed.insert(0, Some(90.0));
        mixed.insert(1, Some(95.0));
        assert_eq!(
            verdict(&a, &mixed, true, 0.25, false),
            Verdict { won: 8, pairs: 10, word: "flat" }
        );
        // A spread wider than the bound cannot be told from flat.
        let wide = numbered(&[50.0, 150.0, 60.0, 140.0, 100.0, 100.0, 70.0, 130.0, 100.0, 100.0]);
        assert_eq!(verdict(&a, &wide, true, 0.25, false).word, "unresolved");
        // No gain while the change fails more often than the parent.
        assert_eq!(
            verdict(&a, &up, true, 0.25, true),
            Verdict { won: 10, pairs: 10, word: "flat" }
        );
    }

    #[test]
    fn failed_runs_are_pairs_not_won() {
        let a = numbered(&[100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]);
        let up = numbered(&measured(&a).iter().map(|x| x * 1.2).collect::<Vec<_>>());
        // The change crashes in 2 of 10 pairs and wins the other 8:
        // 8 of the 10 pairs run, no gain.
        let mut crashed = up.clone();
        crashed.insert(3, None);
        crashed.insert(7, None);
        assert_eq!(
            verdict(&a, &crashed, true, 0.25, false),
            Verdict { won: 8, pairs: 10, word: "flat" }
        );
        // A pair the change never ran counts too.
        let mut cut = up.clone();
        cut.remove(&9);
        assert_eq!(verdict(&a, &cut, true, 0.25, false).pairs, 10);
        // A pair the parent failed is not won either.
        let mut parent_crashed = a.clone();
        parent_crashed.insert(0, None);
        assert_eq!(verdict(&parent_crashed, &up, true, 0.25, false).won, 9);
        // A change with no correct run is worse; with neither side
        // measured there is nothing to tell.
        let none: Series = (0..10).map(|p| (p, None)).collect();
        assert_eq!(verdict(&a, &none, true, 0.25, false).word, "WORSE");
        assert_eq!(verdict(&none, &none, true, 0.25, false).word, "unresolved");
    }

    #[test]
    fn incorrect_runs_leave_the_values_and_count_as_failures() {
        let ledger = parse_json(
            r#"{"runs": [
                {"workload": "w", "pair": 0, "correct": true, "attempted": 100, "failed": 0, "metrics": {"m": 5}},
                {"workload": "w", "pair": 1, "correct": false, "attempted": 100, "failed": 2, "metrics": {"m": 9}},
                {"workload": "w", "pair": 2, "correct": false, "error": "exit status: 101"}
            ]}"#,
        )
        .expect("valid JSON");
        let s = series(&ledger, "w", "m");
        assert_eq!(s, BTreeMap::from([(0, Some(5.0)), (1, None), (2, None)]));
        let f = Failures::of(&ledger, "w");
        assert_eq!((f.bad, f.runs, f.failed_share), (2, 3, 0.01));
        let clean = Failures { bad: 0, runs: 3, failed_share: 0.0 };
        assert!(f.more_than(&clean) && !clean.more_than(&f));
    }

    #[test]
    fn files_run_differently_are_not_compared() {
        let meta =
            |seed: u64| parse_json(&format!(r#"{{"meta": {{"seed": {seed}, "seconds": 9}}}}"#));
        let (a, b) = (meta(7).expect("JSON"), meta(8).expect("JSON"));
        assert!(check_same_runs(&a, &a).is_ok());
        assert!(check_same_runs(&a, &b).is_err());
    }
}
