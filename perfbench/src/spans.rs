//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API. A span has a name, start, end, parent and the id of the
//! request it belongs to. Closing a span adds its duration to a
//! per-name tally, and its self time (duration minus the time its
//! children cover) to the layer shares when it sits inside a
//! `request` tree. The first [`SPAN_CAP`] spans are kept for
//! [`Recorder::write_jsonl`]; later ones only feed the tallies, so
//! memory stays bounded.
//!
//! A disabled recorder returns from every call before reading the clock.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Spans kept for the JSONL dump.
pub const SPAN_CAP: usize = 1 << 16;

/// Name of the root span of a timed request.
pub const REQUEST: &str = "request";

/// A closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id, in opening order.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Id shared by every span of one request.
    pub request: u64,
    /// Layer call name.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Spans closed.
    pub spans: u64,
    /// Work items the spans covered (divides in a divide loop, else 1
    /// per span).
    pub items: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self time of the spans inside `request` trees.
    pub request_self_ns: u64,
}

impl Tally {
    /// Mean ns per item, `None` before the first span.
    pub fn per_item_ns(&self) -> Option<f64> {
        (self.items > 0).then(|| self.total_ns as f64 / self.items as f64)
    }
}

#[derive(Debug)]
struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// The recorder; see the module docs.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    stack: Vec<Open>,
    next_id: u64,
    request: u64,
    spans: Vec<SpanRecord>,
    tallies: BTreeMap<&'static str, Tally>,
}

impl Recorder {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            stack: Vec::new(),
            next_id: 0,
            request: 0,
            spans: Vec::new(),
            tallies: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between requests.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span. A root span starts a new request id.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        if self.stack.is_empty() {
            self.request += 1;
        }
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id: self.next_id,
            name,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost span as one item.
    pub fn close(&mut self) {
        self.close_as(None, 1);
    }

    /// Closes the innermost span, renaming it to `rename` when given
    /// (an outcome known only at the end, such as a cache hit) and
    /// counting `items` work items.
    pub fn close_as(&mut self, rename: Option<&'static str>, items: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("close without open");
        let name = rename.unwrap_or(open.name);
        let dur = end_ns.saturating_sub(open.start_ns);
        let in_request = self.stack.first().map_or(name, |root| root.name) == REQUEST;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.tallies.entry(name).or_default();
        t.spans += 1;
        t.items += items;
        t.total_ns += dur;
        if in_request {
            t.request_self_ns += dur.saturating_sub(open.child_ns);
        }
        if self.spans.len() < SPAN_CAP {
            self.spans.push(SpanRecord {
                id: open.id,
                parent: self.stack.last().map(|p| p.id),
                request: self.request,
                name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// The tally of `name` (all zero if it never closed).
    pub fn tally(&self, name: &str) -> Tally {
        self.tallies.get(name).copied().unwrap_or_default()
    }

    /// Every layer's share of request time: its summed self time inside
    /// `request` trees over the requests' summed duration. The
    /// `request` entry is the harness's own part.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let total = self.tally(REQUEST).total_ns.max(1) as f64;
        self.tallies
            .iter()
            .filter(|(_, t)| t.request_self_ns > 0)
            .map(|(&name, t)| (name, t.request_self_ns as f64 / total))
            .collect()
    }

    /// Spans kept so far, in closing order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Writes the kept spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Any error of `out`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        r.open(REQUEST);
        r.open("cache.lookup");
        r.close();
        r.close();
        assert!(r.spans().is_empty());
        assert_eq!(r.tally(REQUEST), Tally::default());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut r = Recorder::new(true);
        r.open(REQUEST);
        r.open("cache.lookup");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close_as(Some("cache.hit"), 1);
        r.open("guard.divide");
        r.close_as(None, 8);
        r.close();
        r.open("probe");
        r.open("cache.lookup");
        r.close();
        r.close();

        let s = r.spans();
        assert_eq!(s.len(), 5);
        let root = s[2];
        assert_eq!((root.name, root.parent), (REQUEST, None));
        assert_eq!(s[0].parent, Some(root.id));
        assert_eq!(s[0].request, root.request);
        assert_ne!(s[4].request, root.request);
        assert_eq!(r.tally("guard.divide").items, 8);
        // The probe's lookup counts in the tally but not in the shares.
        assert_eq!(r.tally("cache.lookup").request_self_ns, 0);
        let req = r.tally(REQUEST);
        let hit = r.tally("cache.hit");
        assert!(hit.request_self_ns >= 2_000_000);
        assert!(req.request_self_ns < req.total_ns - hit.total_ns + 1);
        let sum: f64 = r.shares().iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9, "{sum}");

        let mut out = Vec::new();
        r.write_jsonl(&mut out).expect("write to a Vec");
        assert_eq!(String::from_utf8_lossy(&out).lines().count(), 5);
    }
}
