//! In-memory spans recorded around public calls, their self times, and
//! the order statistics the benchmark reports.

use std::io::Write;
use std::time::Instant;

/// Span recorder interface. The untraced replay uses [`NoTrace`], whose
/// calls compile to nothing, so one replay body serves both modes.
pub trait Tracer {
    /// Opens a span named `name` (an index into the recorder's name
    /// table) for request `id`; its parent is the innermost open span.
    fn begin(&mut self, name: usize, id: u32);
    /// Closes the innermost open span.
    fn end(&mut self);
}

/// The recorder that records nothing.
#[derive(Debug, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn begin(&mut self, _name: usize, _id: u32) {}
    #[inline(always)]
    fn end(&mut self) {}
}

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same recorder, or [`NO_PARENT`].
    pub parent: u32,
    /// The reveal or frame this span belongs to.
    pub id: u32,
    pub name: u8,
}

/// Records spans in memory, in the order they were opened.
#[derive(Debug)]
pub struct Spans {
    pub names: &'static [&'static str],
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new(names: &'static [&'static str]) -> Self {
        Spans {
            names,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Self time per name, in seconds.
    pub fn self_seconds(&self) -> Vec<f64> {
        self_times(&self.spans, self.names.len())
            .into_iter()
            .map(|ns| ns as f64 * 1e-9)
            .collect()
    }

    /// Writes the spans as a binary file: the magic `MLASPAN1`, the name
    /// table (u32 count, then u32-length-prefixed UTF-8 names), a u64
    /// span count, and one 29-byte little-endian record per span
    /// (start_ns u64, end_ns u64, parent u32, id u32, name u8).
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"MLASPAN1")?;
        out.write_all(&(self.names.len() as u32).to_le_bytes())?;
        for name in self.names {
            out.write_all(&(name.len() as u32).to_le_bytes())?;
            out.write_all(name.as_bytes())?;
        }
        out.write_all(&(self.spans.len() as u64).to_le_bytes())?;
        for s in &self.spans {
            out.write_all(&s.start_ns.to_le_bytes())?;
            out.write_all(&s.end_ns.to_le_bytes())?;
            out.write_all(&s.parent.to_le_bytes())?;
            out.write_all(&s.id.to_le_bytes())?;
            out.write_all(&[s.name])?;
        }
        out.flush()
    }
}

impl Tracer for Spans {
    #[inline]
    fn begin(&mut self, name: usize, id: u32) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            start_ns,
            end_ns: start_ns,
            parent,
            id,
            name: name as u8,
        });
    }

    #[inline]
    fn end(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("end() matches a begin()");
        self.spans[index as usize].end_ns = end_ns;
    }
}

/// Total self time per name index, in nanoseconds: each span's duration
/// minus the part of it that the union of its children's intervals
/// covers. `spans` must be in opening order (every parent before its
/// children, siblings by start time), as [`Spans`] records them.
pub fn self_times(spans: &[Span], names: usize) -> Vec<u64> {
    /// An ancestor still collecting children: its index and how much of
    /// it the children cover, with the end of the covered prefix.
    struct Open {
        index: u32,
        covered: u64,
        covered_until: u64,
    }
    let mut totals = vec![0u64; names];
    let mut stack: Vec<Open> = Vec::new();
    let finish = |open: Open, totals: &mut Vec<u64>| {
        let s = spans[open.index as usize];
        totals[usize::from(s.name)] += (s.end_ns - s.start_ns).saturating_sub(open.covered);
    };
    for (index, span) in spans.iter().enumerate() {
        while let Some(top) = stack.last() {
            if top.index == span.parent {
                break;
            }
            let done = stack.pop().expect("non-empty");
            finish(done, &mut totals);
        }
        if let Some(top) = stack.last_mut() {
            let parent = spans[top.index as usize];
            let start = span.start_ns.max(parent.start_ns).max(top.covered_until);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                top.covered += end - start;
            }
            top.covered_until = top.covered_until.max(end);
        }
        stack.push(Open {
            index: index as u32,
            covered: 0,
            covered_until: 0,
        });
    }
    while let Some(done) = stack.pop() {
        finish(done, &mut totals);
    }
    totals
}

/// The `q`-th percentile (0–100) of `values`, by linear interpolation
/// between closest ranks. Sorts `values` in place.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    values.sort_by(f64::total_cmp);
    let rank = q / 100.0 * (values.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    values[low] + (values[high] - values[low]) * (rank - low as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32, name: u8) -> Span {
        Span {
            start_ns,
            end_ns,
            parent,
            id: 0,
            name,
        }
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 100.0), 5.0);
        assert_eq!(percentile(&mut v, 25.0), 2.0);
        let mut even = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(median(&mut even), 25.0);
        // Rank 0.99 * 99 = 98.01 over 1..=100: between 99 and 100.
        let mut hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&mut hundred, 99.0) - 99.01).abs() < 1e-9);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with children 10..30 and 20..50 (overlapping: union
        // 10..50) and a grandchild 25..28 under the second child; a second
        // root 200..260 with one child 190..210 that starts before it.
        let spans = [
            span(0, 100, NO_PARENT, 0),
            span(10, 30, 0, 1),
            span(20, 50, 0, 2),
            span(25, 28, 2, 3),
            span(200, 260, NO_PARENT, 0),
            span(190, 210, 4, 1),
        ];
        let totals = self_times(&spans, 4);
        assert_eq!(totals[0], (100 - 40) + (60 - 10));
        assert_eq!(totals[1], 20 + 20);
        assert_eq!(totals[2], 30 - 3);
        assert_eq!(totals[3], 3);
    }

    #[test]
    fn recorder_nests_spans_and_times_are_ordered() {
        let mut t = Spans::new(&["step", "a", "b"]);
        t.begin(0, 7);
        t.begin(1, 7);
        t.end();
        t.begin(2, 7);
        t.end();
        t.end();
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        assert_eq!((t.spans[1].parent, t.spans[2].parent), (0, 0));
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns && s.id == 7));
        let total: u64 = self_times(&t.spans, 3).iter().sum();
        assert_eq!(total, t.spans[0].end_ns - t.spans[0].start_ns);
    }
}
