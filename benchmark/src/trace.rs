//! In-memory spans around every call the harness makes into a layer.
//!
//! One recorder per thread (the benchmark has one thread), so the inline
//! pump buried inside the `Driver` can open spans without being handed a
//! handle.  A span is name, start, end, parent and op id; a layer's *self*
//! time is its span minus the part its children cover.  Per-name totals are
//! kept for every span; the spans themselves are kept up to [`SPAN_CAP`] and
//! written out when the benchmark ends.  Switched off (the default) every
//! call is one thread-local flag test; switching off keeps what was
//! recorded, so untraced phases can run between traced ones.

use std::cell::RefCell;
use std::time::Instant;

/// Spans kept in memory for the trace file; totals still cover the rest.
pub const SPAN_CAP: usize = 100_000;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which call this is (`gen`, `resolve`, `submit`, `transport.send`, …).
    pub name: &'static str,
    /// Nanoseconds since tracing was first enabled.
    pub start_ns: u64,
    /// Nanoseconds since tracing was first enabled.
    pub end_ns: u64,
    /// Index of the enclosing span among the kept spans, or [`NO_PARENT`].
    pub parent: u32,
    /// The operation the span belongs to.
    pub op: u32,
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the children's.
    pub self_ns: u64,
}

struct Frame {
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    kept: u32,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    op: u32,
    stack: Vec<Frame>,
    spans: Vec<Span>,
    totals: Vec<(&'static str, Total)>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Switches recording on or off; what was recorded so far is kept.
pub fn enable(on: bool) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        match r.as_mut() {
            Some(rec) => rec.on = on,
            None if on => {
                *r = Some(Recorder {
                    on,
                    epoch: Instant::now(),
                    op: 0,
                    stack: Vec::new(),
                    spans: Vec::new(),
                    totals: Vec::new(),
                });
            }
            None => {}
        }
    });
}

/// Sets the op id stamped on spans opened from now on.
#[inline]
pub fn set_op(op: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = op;
        }
    });
}

fn enter(name: &'static str) -> bool {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut().filter(|rec| rec.on) else {
            return false;
        };
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        let kept = if rec.spans.len() < SPAN_CAP {
            let parent = rec.stack.last().map_or(NO_PARENT, |f| f.kept);
            rec.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op: rec.op,
            });
            (rec.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        rec.stack.push(Frame {
            name,
            start_ns,
            children_ns: 0,
            kept,
        });
        true
    })
}

fn exit() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return;
        };
        let Some(frame) = rec.stack.pop() else {
            return;
        };
        let end_ns = rec.epoch.elapsed().as_nanos() as u64;
        let dur = end_ns - frame.start_ns;
        if frame.kept != NO_PARENT {
            rec.spans[frame.kept as usize].end_ns = end_ns;
        }
        if let Some(parent) = rec.stack.last_mut() {
            parent.children_ns += dur;
        }
        let total = match rec.totals.iter_mut().find(|(n, _)| *n == frame.name) {
            Some((_, t)) => t,
            None => {
                rec.totals.push((frame.name, Total::default()));
                &mut rec.totals.last_mut().expect("just pushed").1
            }
        };
        total.count += 1;
        total.total_ns += dur;
        total.self_ns += dur.saturating_sub(frame.children_ns);
    });
}

/// Runs `f` inside a span called `name` (just runs it when disabled).
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let open = enter(name);
    let r = f();
    if open {
        exit();
    }
    r
}

/// Takes the per-name totals gathered since the last call, leaving zeroes.
pub fn take_totals() -> Vec<(&'static str, Total)> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .as_mut()
            .map(|rec| std::mem::take(&mut rec.totals))
            .unwrap_or_default()
    })
}

/// Takes the kept spans; call once, when the benchmark ends (parents are
/// indices into this list).
pub fn take_spans() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .as_mut()
            .map(|rec| std::mem::take(&mut rec.spans))
            .unwrap_or_default()
    })
}

/// The total recorded under `name`, zero when none was.
pub fn total_of(totals: &[(&'static str, Total)], name: &str) -> Total {
    totals
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, t)| *t)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        enable(true);
        set_op(7);
        span("submit", || {
            span("transport.send", || std::hint::black_box(1 + 1));
            span("host.step", || std::hint::black_box(2 + 2));
        });
        let totals = take_totals();
        let spans = take_spans();
        enable(false);

        let submit = total_of(&totals, "submit");
        let send = total_of(&totals, "transport.send");
        let step = total_of(&totals, "host.step");
        assert_eq!((submit.count, send.count, step.count), (1, 1, 1));
        assert_eq!(
            submit.self_ns,
            submit.total_ns - send.total_ns - step.total_ns
        );
        assert_eq!(send.self_ns, send.total_ns);

        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "submit");
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }

    #[test]
    fn switched_off_records_nothing_and_keeps_the_rest() {
        assert_eq!(span("submit", || 5), 5);
        assert!(take_totals().is_empty());
        enable(true);
        span("gen", || ());
        enable(false);
        span("submit", || ());
        assert_eq!(take_totals().len(), 1);
        assert_eq!(take_spans().len(), 1);
    }
}
