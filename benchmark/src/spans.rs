//! The benchmark's own span recorder, self-time arithmetic, and the
//! chrome-trace writer.
//!
//! Spans are recorded from the benchmark's files, around calls into
//! each layer; they stay in memory and are written once, at exit. The
//! program's own sampled tracer is read through its public
//! `Tracer::spans()` and lands in the same file under another `pid`.

use std::time::Instant;

/// One closed span: `parent` is the id of the span that caused it
/// (0 for a root); spans of one request share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: usize,
}

/// A caller thread's recorder. Ids are unique across recorders that
/// were given distinct `tid`s.
pub struct Recorder {
    epoch: Instant,
    tid: usize,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: usize) -> Recorder {
        Recorder { epoch, tid, next: 0, spans: Vec::new() }
    }

    /// Run `f` inside a span and return what it returned with the
    /// span's id, so children can name it as their parent.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: u64,
        request: u64,
        f: impl FnOnce(&mut Recorder, u64) -> T,
    ) -> T {
        self.next += 1;
        let id = (self.tid as u64 + 1) << 40 | self.next;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self, id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let tid = self.tid;
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns,
            tid,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, ns: its duration minus the part of its
/// interval that its children cover (overlapping children count
/// once, and a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut upto) = (0, s.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(upto), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    upto = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per request, the summed self time (ns) of its spans named `name`.
pub fn self_time_per_request(spans: &[Span], selfs: &[u64], name: &str) -> Vec<u64> {
    let mut by_request = std::collections::BTreeMap::new();
    for (s, &t) in spans.iter().zip(selfs).filter(|(s, _)| s.name == name) {
        *by_request.entry(s.request).or_insert(0) += t;
    }
    by_request.into_values().collect()
}

/// A chrome://tracing (or ui.perfetto.dev) JSON array of complete
/// events; each `(pid, spans)` group becomes one process row.
pub fn chrome_json(groups: &[(u32, &[Span])]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for (pid, spans) in groups {
        for s in *spans {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"fusedmm\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{pid},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.tid,
                s.id,
                s.parent,
                s.request,
            ));
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, request: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request, name: name.to_string(), start_ns, end_ns, tid: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 1, "embed", 0, 100),
            // Overlapping children cover 10..50 once; the third sticks
            // out of its parent and is clipped to 90..100.
            span(2, 1, 1, "enqueue", 10, 40),
            span(3, 1, 1, "kernel", 30, 50),
            span(4, 1, 1, "harvest", 90, 130),
            // A grandchild takes from its parent, not from the root.
            span(5, 3, 1, "kernel", 35, 45),
            span(6, 0, 2, "embed", 200, 260),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 10, 40, 10, 60]);
    }

    #[test]
    fn self_time_groups_by_request_and_name() {
        let spans = [
            span(1, 0, 1, "kernel", 0, 10),
            span(2, 0, 1, "kernel", 20, 25),
            span(3, 0, 2, "kernel", 0, 7),
            span(4, 0, 2, "batch", 0, 100),
        ];
        let selfs = self_times(&spans);
        assert_eq!(self_time_per_request(&spans, &selfs, "kernel"), vec![15, 7]);
        assert!(self_time_per_request(&spans, &selfs, "rpc").is_empty());
    }

    #[test]
    fn recorder_nests_and_writes_loadable_json() {
        let mut rec = Recorder::new(Instant::now(), 3);
        rec.span("call", 0, 9, |rec, call| {
            rec.span("begin", call, 9, |_, _| ());
            rec.span("wait", call, 9, |_, _| ());
        });
        let spans = rec.into_spans();
        // Children close first; all three point at one request.
        assert_eq!(
            spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["begin", "wait", "call"]
        );
        assert!(spans[..2].iter().all(|s| s.parent == spans[2].id && s.request == 9));
        assert!(spans[2].start_ns <= spans[0].start_ns && spans[1].end_ns <= spans[2].end_ns);
        let json = chrome_json(&[(0, &spans), (1, &spans[..1])]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert!(!json.contains(",\n\n"));
    }
}
