//! Structured tracing: leveled key=value event lines on stderr and
//! RAII span timers that feed [`crate::metrics`] histograms.
//!
//! Events go to **stderr only** — stdout belongs to reports, and the
//! determinism contract (reports bit-identical across thread counts,
//! shardings, executors, and verbosity) depends on that. Instrumentation
//! reads clocks but never feeds them back into computation; CI runs the
//! byte-identity gates with `SPNN_LOG=trace` to prove it.
//!
//! Verbosity is filtered by the `SPNN_LOG` environment variable
//! (`error` | `warn` | `info` | `debug` | `trace` | `off`; default
//! `info`), overridable in-process via [`set_verbosity`] (the CLI maps
//! `--quiet` to [`Level::Warn`] when `SPNN_LOG` is unset). Line format
//! defaults to logfmt-style text:
//!
//! ```text
//! ts=2026-08-07T12:00:00.123Z level=info target=serve msg="request" route=/run status=200
//! ```
//!
//! and switches to one JSON object per line with `SPNN_LOG_FORMAT=json`
//! or [`set_format`]`(`[`Format::Json`]`)` (what `spnn serve --log-json`
//! does) for machine ingestion.
//!
//! Emit events with the [`tevent!`](crate::tevent) macro:
//!
//! ```
//! use spnn_engine::tevent;
//! use spnn_engine::trace::Level;
//! tevent!(Level::Info, "doctest", "hello", answer = 42, pi = 3.5);
//! ```

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::json::{escape, num};
use crate::metrics::Histogram;

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The operation failed.
    Error = 1,
    /// Something surprising that the engine worked around.
    Warn = 2,
    /// Lifecycle milestones (default verbosity).
    Info = 3,
    /// Per-request / per-shard detail.
    Debug = 4,
    /// Per-point detail, span timings.
    Trace = 5,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// Line format for emitted events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// logfmt-style `k=v` text (default).
    Text,
    /// One JSON object per line.
    Json,
}

/// Sentinel meaning "not initialised from the environment yet".
const UNSET: u8 = 255;
/// Max verbosity level that passes the filter; 0 silences everything.
static VERBOSITY: AtomicU8 = AtomicU8::new(UNSET);
/// 0 = text, 1 = json.
static FORMAT: AtomicU8 = AtomicU8::new(UNSET);

fn verbosity() -> u8 {
    let v = VERBOSITY.load(Ordering::Relaxed);
    if v != UNSET {
        return v;
    }
    let parsed = match std::env::var("SPNN_LOG") {
        Ok(s) => match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => 0,
            "error" => Level::Error as u8,
            "warn" | "warning" => Level::Warn as u8,
            "info" | "" => Level::Info as u8,
            "debug" => Level::Debug as u8,
            "trace" => Level::Trace as u8,
            _ => Level::Info as u8,
        },
        Err(_) => Level::Info as u8,
    };
    VERBOSITY.store(parsed, Ordering::Relaxed);
    parsed
}

fn format() -> Format {
    let f = FORMAT.load(Ordering::Relaxed);
    if f != UNSET {
        return if f == 1 { Format::Json } else { Format::Text };
    }
    let parsed = match std::env::var("SPNN_LOG_FORMAT") {
        Ok(s) if s.trim().eq_ignore_ascii_case("json") => Format::Json,
        _ => Format::Text,
    };
    FORMAT.store(
        if parsed == Format::Json { 1 } else { 0 },
        Ordering::Relaxed,
    );
    parsed
}

/// Caps verbosity in-process, overriding `SPNN_LOG`. Pass `None` to
/// silence all events.
pub fn set_verbosity(level: Option<Level>) {
    VERBOSITY.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
}

/// True when `SPNN_LOG` was set in the environment (used by the CLI to
/// decide whether `--quiet` should lower the default verbosity).
pub fn verbosity_from_env() -> bool {
    std::env::var_os("SPNN_LOG").is_some()
}

/// Forces the line format in-process, overriding `SPNN_LOG_FORMAT`.
pub fn set_format(fmt: Format) {
    FORMAT.store(if fmt == Format::Json { 1 } else { 0 }, Ordering::Relaxed);
}

/// True when events at `level` would be emitted — guard any costly
/// field construction behind this.
pub fn enabled(level: Level) -> bool {
    (level as u8) <= verbosity()
}

/// A field value in a trace event. Construct via `From`: the
/// [`tevent!`](crate::tevent) macro calls `.into()` on every field expression.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// A string slice.
    Str(&'a str),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}
impl<'a> From<&'a String> for Value<'a> {
    fn from(v: &'a String) -> Self {
        Value::Str(v)
    }
}
impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value<'_> {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u16> for Value<'_> {
    fn from(v: u16) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value<'_> {
    fn from(v: i32) -> Self {
        Value::I64(v as i64)
    }
}
impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Emits one structured event line to stderr if `level` passes the
/// filter. Prefer the [`tevent!`](crate::tevent) macro, which builds the field slice.
pub fn emit(level: Level, target: &str, msg: &str, fields: &[(&str, Value<'_>)]) {
    if !enabled(level) {
        return;
    }
    let ts = rfc3339_now();
    let line = match format() {
        Format::Text => {
            let mut line = String::with_capacity(64);
            let _ = write!(
                line,
                "ts={ts} level={} target={} msg={}",
                level.as_str(),
                text_atom(target),
                text_atom(msg)
            );
            for (k, v) in fields {
                let _ = write!(line, " {k}=");
                match v {
                    Value::Str(s) => line.push_str(&text_atom(s)),
                    Value::U64(n) => {
                        let _ = write!(line, "{n}");
                    }
                    Value::I64(n) => {
                        let _ = write!(line, "{n}");
                    }
                    Value::F64(n) => {
                        let _ = write!(line, "{n}");
                    }
                    Value::Bool(b) => {
                        let _ = write!(line, "{b}");
                    }
                }
            }
            line
        }
        Format::Json => {
            let mut line = String::with_capacity(96);
            let _ = write!(
                line,
                "{{\"ts\":\"{ts}\",\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"",
                level.as_str(),
                escape(target),
                escape(msg)
            );
            for (k, v) in fields {
                let _ = write!(line, ",\"{}\":", escape(k));
                match v {
                    Value::Str(s) => {
                        let _ = write!(line, "\"{}\"", escape(s));
                    }
                    Value::U64(n) => {
                        let _ = write!(line, "{n}");
                    }
                    Value::I64(n) => {
                        let _ = write!(line, "{n}");
                    }
                    Value::F64(n) => {
                        let _ = write!(line, "{}", num(*n));
                    }
                    Value::Bool(b) => {
                        let _ = write!(line, "{b}");
                    }
                }
            }
            line.push('}');
            line
        }
    };
    // One write per line; ignore a broken stderr rather than panic.
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{line}");
}

/// Emits a structured trace event.
///
/// ```
/// use spnn_engine::tevent;
/// use spnn_engine::trace::Level;
/// tevent!(Level::Debug, "cache", "disk hit", tier = "disk", bytes = 1024usize);
/// ```
#[macro_export]
macro_rules! tevent {
    ($level:expr, $target:expr, $msg:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::trace::enabled($level) {
            $crate::trace::emit(
                $level,
                $target,
                $msg,
                &[$((stringify!($key), $crate::trace::Value::from($val))),*],
            );
        }
    };
}

/// An RAII timer: started with [`Span::start`], it observes its elapsed
/// wall-clock into a [`Histogram`] on drop and (at [`Level::Trace`])
/// emits a `span` event with the duration. Purely observational — the
/// measured time never feeds back into computation.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    started: Instant,
    histogram: Option<Histogram>,
    done: bool,
}

impl Span {
    /// Starts a span that reports into `histogram` on drop.
    pub fn start(name: &'static str, histogram: Histogram) -> Self {
        Span {
            name,
            started: Instant::now(),
            histogram: Some(histogram),
            done: false,
        }
    }

    /// Starts a span that only emits the trace event (no histogram).
    pub fn event_only(name: &'static str) -> Self {
        Span {
            name,
            started: Instant::now(),
            histogram: None,
            done: false,
        }
    }

    /// Elapsed time so far.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Ends the span now, returning its duration (drop becomes a no-op).
    pub fn finish(mut self) -> Duration {
        self.record();
        self.elapsed()
    }

    fn record(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let elapsed = self.started.elapsed();
        if let Some(h) = &self.histogram {
            h.observe_duration(elapsed);
        }
        tevent!(
            Level::Trace,
            "span",
            self.name,
            seconds = elapsed.as_secs_f64()
        );
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

/// Quotes an atom for the text format when it contains whitespace,
/// quotes, or `=`; bare otherwise. Empty strings render as `""`.
fn text_atom(s: &str) -> String {
    let needs_quoting = s.is_empty()
        || s.chars()
            .any(|c| c.is_whitespace() || c == '"' || c == '=' || c == '\\');
    if !needs_quoting {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The current wall-clock as `YYYY-MM-DDTHH:MM:SS.mmmZ` (UTC), computed
/// without a calendar dependency via the days-from-civil inverse.
fn rfc3339_now() -> String {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or(Duration::ZERO);
    rfc3339_from_unix(now.as_secs(), now.subsec_millis())
}

fn rfc3339_from_unix(secs: u64, millis: u32) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    // civil-from-days (Howard Hinnant's algorithm), days since 1970-01-01.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { y + 1 } else { y };
    format!("{year:04}-{month:02}-{d:02}T{h:02}:{m:02}:{s:02}.{millis:03}Z")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc3339_known_timestamps() {
        assert_eq!(rfc3339_from_unix(0, 0), "1970-01-01T00:00:00.000Z");
        // 2026-08-07T00:00:00Z
        assert_eq!(
            rfc3339_from_unix(1_786_060_800, 7),
            "2026-08-07T00:00:00.007Z"
        );
        // Leap-day check: 2024-02-29T12:34:56Z
        assert_eq!(
            rfc3339_from_unix(1_709_210_096, 500),
            "2024-02-29T12:34:56.500Z"
        );
    }

    #[test]
    fn text_atom_quoting() {
        assert_eq!(text_atom("plain"), "plain");
        assert_eq!(text_atom("/run"), "/run");
        assert_eq!(text_atom("two words"), "\"two words\"");
        assert_eq!(text_atom("a=b"), "\"a=b\"");
        assert_eq!(text_atom(""), "\"\"");
        assert_eq!(text_atom("say \"hi\""), "\"say \\\"hi\\\"\"");
    }

    #[test]
    fn json_string_escapes() {
        // The JSON log format quotes every string through `json::escape`.
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn level_ordering_matches_severity() {
        assert!(Level::Error < Level::Trace);
        assert!((Level::Warn as u8) < (Level::Debug as u8));
    }

    #[test]
    fn span_observes_histogram() {
        let h = Histogram::new(&[10.0]);
        let span = Span::start("unit", h.clone());
        let d = span.finish();
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= d.as_secs_f64() - 1e-9 || h.sum() > 0.0);
    }

    #[test]
    fn span_records_once() {
        let h = Histogram::new(&[10.0]);
        let span = Span::start("unit", h.clone());
        let _ = span.finish();
        assert_eq!(h.count(), 1);
    }
}
