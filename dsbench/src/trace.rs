//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into the library's public functions
//! (and the chunk pulls and sink writes the library makes through the
//! benchmark's `RowSource` and `Write` wrappers). They are kept in memory
//! and written out once, as one JSON object per line:
//!
//! `{"id":3,"parent":1,"name":"table.csv_chunk","req":0,"start_us":12.5,"end_us":80.25,"self_us":67.75}`
//!
//! `parent` 0 means a root span. `req` is the request id of a served
//! read (0 outside the read loop). Self time is the span's duration minus
//! the part of it its children cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are microseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl SpanRec {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

struct State {
    spans: Vec<SpanRec>,
    /// Ids of the open spans, innermost last.
    open: Vec<u64>,
    next_id: u64,
}

/// Records nested spans on the calling thread.
pub struct Tracer {
    t0: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            state: Mutex::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                next_id: 1,
            }),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("span recorder is never held across a panic")
    }

    /// Runs `f` inside a span named `name` whose parent is the innermost
    /// open span; returns `f`'s result and the span's duration in ms.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let (id, parent) = {
            let mut s = self.lock();
            let id = s.next_id;
            s.next_id += 1;
            let parent = s.open.last().copied().unwrap_or(0);
            s.open.push(id);
            (id, parent)
        };
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        let mut s = self.lock();
        s.open.pop();
        s.spans.push(SpanRec {
            id,
            parent,
            name,
            req,
            start_us,
            end_us,
        });
        (out, (end_us - start_us) / 1e3)
    }

    /// Every closed span, in id order.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut v = self.lock().spans.clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, keyed by span id.
pub fn self_times_us(spans: &[SpanRec]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                let (a, b) = (a.max(s.start_us), b.min(s.end_us));
                if b <= a {
                    continue;
                }
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.dur_us() - covered).max(0.0))
        })
        .collect()
}

/// Per span name: (count, total ms, self ms), the per-layer table.
pub fn by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let selfs = self_times_us(spans);
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_us() / 1e3;
        e.2 += selfs.get(&s.id).copied().unwrap_or(0.0) / 1e3;
    }
    out
}

/// Renders the spans as JSON lines.
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let selfs = self_times_us(spans);
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_us\":{},\"end_us\":{},\"self_us\":{}}}\n",
            s.id,
            s.parent,
            s.name,
            s.req,
            s.start_us,
            s.end_us,
            selfs.get(&s.id).copied().unwrap_or(0.0)
        ));
    }
    out
}

/// The value of `"key":` in one line written by [`to_jsonl`].
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|e| &s[..e]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Checks a spans file written by [`to_jsonl`]: one object per line,
/// unique ids, every parent present, each span inside its parent, and
/// self time between 0 and the span's duration. Returns the span count.
pub fn check_jsonl(text: &str) -> Result<usize, String> {
    struct Line {
        id: u64,
        parent: u64,
        start: f64,
        end: f64,
    }
    let num = |line: &str, key: &str, n: usize| -> Result<f64, String> {
        field(line, key)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("line {n}: bad or missing \"{key}\""))
    };
    let mut lines: BTreeMap<u64, Line> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if !(line.starts_with('{') && line.ends_with('}')) {
            return Err(format!("line {n}: not one JSON object"));
        }
        if field(line, "name").is_none_or(str::is_empty) {
            return Err(format!("line {n}: missing name"));
        }
        let id = num(line, "id", n)? as u64;
        let l = Line {
            id,
            parent: num(line, "parent", n)? as u64,
            start: num(line, "start_us", n)?,
            end: num(line, "end_us", n)?,
        };
        num(line, "req", n)?;
        let self_us = num(line, "self_us", n)?;
        if l.end < l.start || self_us < 0.0 || self_us > l.end - l.start {
            return Err(format!("line {n}: self time outside 0..=duration"));
        }
        if lines.insert(id, l).is_some() {
            return Err(format!("line {n}: duplicate id {id}"));
        }
    }
    for l in lines.values() {
        if l.parent == 0 {
            continue;
        }
        let p = lines
            .get(&l.parent)
            .ok_or_else(|| format!("span {}: parent {} missing", l.id, l.parent))?;
        if l.start < p.start || l.end > p.end {
            return Err(format!("span {}: outside its parent {}", l.id, p.id));
        }
    }
    Ok(lines.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_self_time_and_file_check() {
        let t = Tracer::new();
        t.span("outer", 0, || {
            t.span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", 2, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == outer.id));
        let selfs = self_times_us(&spans);
        let inner_total: f64 = spans
            .iter()
            .filter(|s| s.name == "inner")
            .map(SpanRec::dur_us)
            .sum();
        assert!((selfs[&outer.id] - (outer.dur_us() - inner_total)).abs() < 1e-6);
        let text = to_jsonl(&spans);
        assert_eq!(check_jsonl(&text), Ok(3));
        let table = by_name(&spans);
        assert_eq!(table["inner"].0, 2);
    }

    #[test]
    fn check_rejects_orphans_and_bad_self_time() {
        let orphan = "{\"id\":2,\"parent\":9,\"name\":\"x\",\"req\":0,\"start_us\":0,\"end_us\":1,\"self_us\":1}\n";
        assert!(check_jsonl(orphan).is_err());
        let over = "{\"id\":1,\"parent\":0,\"name\":\"x\",\"req\":0,\"start_us\":0,\"end_us\":1,\"self_us\":2}\n";
        assert!(check_jsonl(over).is_err());
        assert!(check_jsonl("not json\n").is_err());
    }
}
