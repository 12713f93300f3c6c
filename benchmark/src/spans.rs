//! In-memory spans recorded around the calls the benchmark makes into each layer.
//!
//! A span is a name, a start and an end (nanoseconds since the recorder's origin), the span
//! that caused it and the round it belongs to. Spans come from three places: explicit
//! [`Recorder::enter`]/[`Recorder::exit`] pairs around direct calls, and intervals stamped
//! elsewhere against the same origin (trace-sink phases, storage-backend operations) that
//! [`Recorder::adopt`] files under the innermost span containing them. Nothing is written
//! until [`Recorder::write_jsonl`] at the end of the run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; a disabled recorder takes no timestamps and keeps nothing, so the
/// untraced end-to-end run pays one branch per call site.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
    round_first: usize,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
            round_first: 0,
        }
    }

    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a round: later spans carry `round`, and adoption searches only this round.
    pub fn begin_round(&mut self, round: u32) {
        self.round = round;
        self.round_first = self.spans.len();
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Self::enter`] (and any still open inside it).
    pub fn exit(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Files an interval stamped against the same origin under the innermost span of the
    /// current round that contains it (the latest-started one; ties go to the later span).
    pub fn adopt(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = (self.round_first..self.spans.len())
            .filter(|&i| self.spans[i].start_ns <= start_ns && self.spans[i].end_ns >= end_ns)
            .max_by_key(|&i| (self.spans[i].start_ns, i));
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            round: self.round,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `name`, `start_ns`, `end_ns`, `parent` (line index or
    /// null), `round`, `self_ns`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self_times_ns(&self.spans);
        for (s, self_ns) in self.spans.iter().zip(self_ns) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.round,
                self_ns
            )?;
        }
        out.flush()
    }
}

/// Every span's self time: its duration minus the part of its interval its direct children
/// cover. Children are clipped to the parent and overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let clipped = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if clipped.1 > clipped.0 {
                children[p].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(parent, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = parent.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            parent.duration_ns() - covered
        })
        .collect()
}

/// Per round, the summed duration (ms) of every span called `name`; rounds in order.
pub fn per_round_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut rounds: Vec<(u32, u64)> = Vec::new();
    for s in spans.iter().filter(|s| s.name == name) {
        match rounds.last_mut() {
            Some((r, total)) if *r == s.round => *total += s.duration_ns(),
            _ => rounds.push((s.round, s.duration_ns())),
        }
    }
    rounds.into_iter().map(|(_, ns)| ns as f64 / 1e6).collect()
}

/// Duration (ms) of every span called `name`, in recording order.
pub fn each_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 20 - 40, 20, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = vec![
            span("unit", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)),  // overlaps a by 10
            span("c", 190, 260, Some(0)),  // sticks out by 60
            span("d", 120, 130, Some(0)),  // inside a
            span("gc", 115, 118, Some(1)), // grandchild: not a direct child
        ];
        // covered: [110,170) ∪ [190,200) = 60 + 10
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 70);
        assert_eq!(own[1], 40 - 3);
    }

    #[test]
    fn children_plus_self_time_equals_the_parent() {
        let spans = vec![
            span("unit", 0, 1000, None),
            span("a", 0, 400, Some(0)),
            span("b", 400, 900, Some(0)),
        ];
        let kids: u64 = spans[1..].iter().map(Span::duration_ns).sum();
        assert_eq!(kids + self_times_ns(&spans)[0], spans[0].duration_ns());
    }

    #[test]
    fn adopt_files_an_interval_under_the_innermost_container() {
        let mut rec = Recorder::new(Instant::now());
        rec.begin_round(3);
        let unit = rec.enter("unit");
        let run = rec.enter("run");
        rec.exit(run);
        rec.exit(unit);
        let (s, e) = (rec.spans[1].start_ns, rec.spans[1].end_ns);
        rec.adopt("phase", s, e);
        rec.adopt("sync", s, e);
        assert_eq!(rec.spans()[2].parent, Some(1));
        assert_eq!(
            rec.spans()[3].parent,
            Some(2),
            "a later adoptee nests in an earlier one"
        );
        assert_eq!(rec.spans()[3].round, 3);
        rec.adopt("outside", 0, u64::MAX);
        assert_eq!(rec.spans()[4].parent, None);
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut rec = Recorder::new(Instant::now());
        let outer = rec.enter("outer");
        let _leaked = rec.enter("inner");
        rec.exit(outer);
        assert!(rec.open.is_empty());
        assert_eq!(rec.spans()[1].end_ns, rec.spans()[0].end_ns);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::disabled();
        let id = rec.enter("x");
        rec.exit(id);
        rec.adopt("y", 0, 1);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn per_round_totals_group_by_round() {
        let mut a = span("p", 0, 1_000_000, None);
        let mut b = span("p", 5, 2_000_005, None);
        let mut c = span("p", 0, 4_000_000, None);
        a.round = 1;
        b.round = 1;
        c.round = 2;
        assert_eq!(per_round_ms(&[a, b, c], "p"), vec![3.0, 4.0]);
    }
}
