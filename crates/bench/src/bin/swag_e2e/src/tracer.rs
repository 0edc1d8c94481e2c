//! Bench-side spans around each layer's public calls.
//!
//! Spans (`name, start_ns, end_ns, parent, op`) go into a buffer
//! allocated up front and are written out when the run ends. A layer's
//! self time is its spans' duration minus the part their direct children
//! cover. Disabled (every `--trace 0` run), `begin`/`end` read no clock
//! and touch no memory.

use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: u16,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; `u32::MAX` when nothing was
/// recorded.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone)]
pub struct LayerTime {
    pub name: &'static str,
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer sharing `origin` with its siblings (one per load thread),
    /// so their spans share a timeline.
    pub fn new(enabled: bool, capacity: usize, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            names: Vec::new(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            stack: Vec::with_capacity(8),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn intern(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Opens a span as a child of the innermost open one. `op` ties the
    /// spans of one operation (a video, a batch, a query) together.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u32) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        self.begin_slow(name, op)
    }

    fn begin_slow(&mut self, name: &'static str, op: u32) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return SpanId(NO_PARENT);
        }
        let name = self.intern(name);
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(id)
    }

    /// Closes a span; returns its duration (0 when nothing was recorded).
    #[inline]
    pub fn end(&mut self, id: SpanId) -> u64 {
        if id.0 == NO_PARENT {
            return 0;
        }
        let end_ns = self.now_ns();
        // Spans close innermost-first; anything still above `id` on the
        // stack was leaked by an early return and is closed with it.
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id.0 {
                break;
            }
        }
        let s = &self.spans[id.0 as usize];
        s.end_ns - s.start_ns
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another thread's spans (parents re-based, roots stay roots).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let map: Vec<u16> = other.names.iter().map(|n| self.intern(n)).collect();
        self.dropped += other.dropped;
        for s in other.spans {
            if self.spans.len() == self.spans.capacity() {
                self.dropped += 1;
                continue;
            }
            self.spans.push(Span {
                name: map[s.name as usize],
                parent: if s.parent == NO_PARENT {
                    NO_PARENT
                } else {
                    s.parent + base
                },
                ..s
            });
        }
    }

    /// Total and self time per span name.
    pub fn layer_times(&self) -> Vec<LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT && (s.parent as usize) < child_ns.len() {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<LayerTime> = self
            .names
            .iter()
            .map(|name| LayerTime {
                name,
                spans: 0,
                total_ns: 0,
                self_ns: 0,
            })
            .collect();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let lt = &mut out[s.name as usize];
            lt.spans += 1;
            lt.total_ns += dur;
            lt.self_ns += dur.saturating_sub(*covered);
        }
        out
    }

    /// The trace artefact: layer totals first, then every span.
    pub fn write_json(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "{{\"dropped\": {}, \"layers\": [", self.dropped)?;
        let layers = self.layer_times();
        for (i, l) in layers.iter().enumerate() {
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"spans\": {}, \"total_ns\": {}, \"self_ns\": {}}}{}",
                l.name,
                l.spans,
                l.total_ns,
                l.self_ns,
                if i + 1 < layers.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "], \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op_id\": {}}}{}",
                self.names[s.name as usize],
                s.start_ns,
                s.end_ns,
                if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true, 16, Instant::now());
        let outer = t.begin("outer", 1);
        let inner = t.begin("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = t.end(inner);
        let outer_ns = t.end(outer);
        let layers = t.layer_times();
        let o = layers.iter().find(|l| l.name == "outer").unwrap();
        let i = layers.iter().find(|l| l.name == "inner").unwrap();
        assert_eq!(o.total_ns, outer_ns);
        assert_eq!(i.self_ns, inner_ns);
        assert_eq!(o.self_ns, outer_ns - inner_ns);
    }

    #[test]
    fn disabled_records_nothing_and_full_buffer_drops() {
        let mut off = Tracer::new(false, 16, Instant::now());
        let s = off.begin("x", 0);
        assert_eq!(off.end(s), 0);
        assert_eq!(off.len(), 0);

        let mut tiny = Tracer::new(true, 1, Instant::now());
        let a = tiny.begin("a", 0);
        let b = tiny.begin("b", 0);
        tiny.end(b);
        tiny.end(a);
        assert_eq!((tiny.len(), tiny.dropped), (1, 1));
    }
}
