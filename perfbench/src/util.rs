//! Small shared pieces: timing, order statistics, report digests, the
//! seeded generator, peak RSS and span bookkeeping.

use spnn_engine::{to_csv, to_json, EngineReport};
use std::time::Instant;

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times one call of `f`, returning its value and the wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, secs(t))
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics; `0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median seconds per call of `f` over `reps` calls.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
    median(&times)
}

/// FNV-1a 64-bit hash — a mismatch detector for report bytes, not a
/// cryptographic digest.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A report rendered to both output formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rendered {
    /// `to_csv` bytes.
    pub csv: String,
    /// `to_json` bytes.
    pub json: String,
}

impl Rendered {
    /// Renders `report` with `to_csv` and `to_json`.
    pub fn of(report: &EngineReport) -> Self {
        Rendered {
            csv: to_csv(report),
            json: to_json(report),
        }
    }

    /// Digest over both renderings (csv, a NUL separator, json), as 16
    /// hex digits.
    pub fn digest(&self) -> String {
        let mut bytes = Vec::with_capacity(self.csv.len() + self.json.len() + 1);
        bytes.extend_from_slice(self.csv.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(self.json.as_bytes());
        format!("{:016x}", fnv1a64(&bytes))
    }
}

/// `splitmix64` — the request-stream generator's only source of
/// randomness, so a seed fixes the stream on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set size of this process (`VmHWM`) in MB, or `0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Sequential top-level spans of one traced operation. Their sum is
/// compared with the operation's wall time (the accounting check).
#[derive(Debug, Default)]
pub struct Spans {
    entries: Vec<(&'static str, f64)>,
}

impl Spans {
    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (v, s) = timed(f);
        self.entries.push((name, s));
        v
    }

    /// The most recent span's seconds.
    pub fn last(&self) -> f64 {
        self.entries.last().map_or(0.0, |(_, s)| *s)
    }

    /// Every recorded duration of `name`, in order.
    pub fn all(&self, name: &str) -> Vec<f64> {
        self.entries
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .collect()
    }

    /// Total seconds recorded under `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.all(name).iter().sum()
    }

    /// Total seconds over every span.
    pub fn sum(&self) -> f64 {
        self.entries.iter().map(|(_, s)| s).sum()
    }
}
