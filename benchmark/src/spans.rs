//! Harness-side spans around calls into each layer's public functions.
//!
//! Spans stay in memory and are written once, as Chrome trace JSON, when the
//! run ends. A span's name is `<layer>.<function>`; its *self time* is its
//! duration minus its children's.
//!
//! The crates carry no spans of their own yet, so a call such as
//! `suite::run_suite` is opaque from here. To still split it, the harness
//! *replays* the part it can call directly (each kernel's `execute`) right
//! after the call and records those spans as **replay children**: they are
//! charged against the parent exactly like nested children, and the time the
//! replay itself takes is taken out of every enclosing span, so the pass's
//! wall stays the wall of the real work.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Workload, cell or request the span belongs to.
    pub tag: String,
    /// Real start, ns since the tracer was made.
    pub start_ns: u64,
    /// Real end.
    pub end_ns: u64,
    /// Replay time that passed inside this span and is not part of it.
    pub paused_ns: u64,
    pub replay: bool,
}

impl Span {
    /// Duration of the span's own work: real extent minus replays inside it.
    pub fn duration_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.paused_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle returned by [`Tracer::begin`]; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Total time spent in finished top-level replay spans.
    paused_total: u64,
    paused_at_begin: Vec<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            paused_total: 0,
            paused_at_begin: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        tag: &str,
        replay: bool,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.paused_at_begin.push(self.paused_total);
        self.open.push(id);
        let start_ns = self.now();
        self.spans.push(Span {
            parent,
            name,
            tag: tag.to_string(),
            start_ns,
            end_ns: start_ns,
            paused_ns: 0,
            replay,
        });
        SpanId(Some(id))
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, tag: &str) -> SpanId {
        let parent = self.open.last().copied();
        let replay = parent.is_some_and(|p| self.spans[p].replay);
        self.push(parent, name, tag, replay)
    }

    /// Open a replay child of `parent`, which has already ended.
    pub fn begin_replay(&mut self, parent: SpanId, name: &'static str, tag: &str) -> SpanId {
        self.push(parent.0, name, tag, true)
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans must end innermost first");
        let inside_replay = self.open.iter().any(|&o| self.spans[o].replay);
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.paused_ns = self.paused_total - self.paused_at_begin[id];
        // A replay that is not nested in another replay stops the clock of
        // every span still open around it.
        if span.replay && !inside_replay {
            self.paused_total += span.end_ns - span.start_ns;
        }
    }

    /// Time one call as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, tag: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, tag);
        let out = f();
        self.end(id);
        out
    }

    /// [`Tracer::time`] for a replay child of `parent`.
    pub fn time_replay<T>(
        &mut self,
        parent: SpanId,
        name: &'static str,
        tag: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin_replay(parent, name, tag);
        let out = f();
        self.end(id);
        out
    }

    /// Run `f` off the clock: preparation a replay needs (re-reading an
    /// output file, say) that the traced call itself never did.
    pub fn off_clock<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        if self.enabled {
            self.paused_total += self.now() - start;
        }
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace JSON (`chrome://tracing`, Perfetto). Real work is on
    /// lane 1 and replays on lane 2, each event carrying its span id, its
    /// parent's, and its tag.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"tag\":{},\"replay\":{}}}}}",
                json_str(s.name),
                json_str(s.layer()),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if s.replay { 2 } else { 1 },
                json_str(&s.tag),
                s.replay,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    serde_json::Value::String(s.to_string()).to_string()
}

/// Self time of every span: its duration minus its children's, floored at 0
/// (a replay can run longer than the call it splits).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[derive(Debug, Clone, PartialEq)]
pub struct NameRow {
    pub name: &'static str,
    pub calls: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals, largest self time first.
pub fn by_name(spans: &[Span]) -> Vec<NameRow> {
    let mut rows: BTreeMap<&'static str, NameRow> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let row = rows.entry(s.name).or_insert(NameRow {
            name: s.name,
            calls: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.calls += 1;
        row.total_ns += s.duration_ns();
        row.self_ns += self_ns;
    }
    let mut rows: Vec<NameRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// Self time summed per layer (the name's first dotted component).
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut layers = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *layers.entry(s.layer()).or_insert(0) += self_ns;
    }
    layers
}

/// Summed duration of the root spans: the wall the self times add up to
/// (less whatever the floor in [`self_times`] cut off).
pub fn root_wall_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        parent: Option<usize>,
        name: &'static str,
        start: u64,
        end: u64,
        paused: u64,
        replay: bool,
    ) -> Span {
        Span {
            parent,
            name,
            tag: String::new(),
            start_ns: start,
            end_ns: end,
            paused_ns: paused,
            replay,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(None, "harness.pass", 0, 100, 0, false),
            span(Some(0), "suite.run_suite", 10, 70, 0, false),
            span(Some(1), "caliper.write_atomic", 50, 65, 0, false),
            span(Some(0), "thicket.stats", 70, 90, 0, false),
        ];
        assert_eq!(self_times(&spans), vec![20, 45, 15, 20]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), root_wall_ns(&spans));
        let layers = by_layer(&spans);
        assert_eq!(layers["suite"], 45);
        assert_eq!(layers["caliper"], 15);
        assert_eq!(layers["harness"], 20);
    }

    #[test]
    fn replay_children_are_charged_to_the_call_they_split() {
        // run_suite takes 60; the 45 replayed right after it is excluded
        // from the pass (paused) and subtracted from run_suite.
        let spans = vec![
            span(None, "harness.pass", 0, 120, 45, false),
            span(Some(0), "suite.run_suite", 5, 65, 0, false),
            span(Some(1), "kernels.execute", 65, 110, 0, true),
        ];
        assert_eq!(spans[0].duration_ns(), 75);
        assert_eq!(self_times(&spans), vec![15, 15, 45]);
        assert_eq!(root_wall_ns(&spans), 75);
        let rows = by_name(&spans);
        assert_eq!(rows[0].name, "kernels.execute");
        assert_eq!(
            (rows[0].calls, rows[0].total_ns, rows[0].self_ns),
            (1, 45, 45)
        );
    }

    #[test]
    fn a_replay_longer_than_its_parent_floors_at_zero() {
        let spans = vec![
            span(None, "suite.run_suite", 0, 10, 0, false),
            span(Some(0), "kernels.execute", 10, 25, 0, true),
        ];
        assert_eq!(self_times(&spans), vec![0, 15]);
    }

    #[test]
    fn tracer_nests_pauses_and_exports() {
        let mut t = Tracer::new(true);
        let pass = t.begin("harness.pass", "w");
        let call = t.begin("suite.run_suite", "Base_Seq");
        std::thread::sleep(std::time::Duration::from_millis(4));
        t.end(call);
        let replay = t.begin_replay(call, "kernels.execute", "k");
        t.time("kernels.inner", "k", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(replay);
        let before = t.paused_total;
        t.off_clock(|| std::thread::sleep(std::time::Duration::from_millis(1)));
        let off_clock = t.paused_total - before;
        assert!(off_clock >= 1_000_000);
        t.end(pass);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[2].parent, Some(1));
        assert!(
            s[2].replay && s[3].replay,
            "spans inside a replay are replays"
        );
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[0].paused_ns, s[2].end_ns - s[2].start_ns + off_clock);
        assert_eq!(s[1].paused_ns, 0);
        assert!(s[0].duration_ns() < s[0].end_ns - s[0].start_ns);
        let json: serde_json::Value = serde_json::from_str(&t.chrome_json()).expect("loadable");
        let events = json["traceEvents"].as_array().expect("traceEvents");
        assert_eq!(events.len(), 4);
        assert_eq!(events[2]["args"]["parent"].as_i64(), Some(1));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.begin("suite.run_suite", "x");
        assert_eq!(t.time("kernels.execute", "k", || 7), 7);
        t.end(a);
        assert!(t.spans().is_empty());
    }
}
