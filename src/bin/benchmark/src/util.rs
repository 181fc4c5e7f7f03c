//! Small shared helpers: seeded RNG, order statistics, process memory,
//! the machine-drift calibration loop, and the repeat-until-50-ms timer
//! every probe uses.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// splitmix64: the harness's only randomness. Workload inputs are a pure
/// function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `u(seed)` of the issue: 0 for seed 0 (so seed 0 reproduces the repo's
/// golden fingerprints), otherwise uniform in `[-1, 1)`.
pub fn seed_jitter(seed: u64) -> f64 {
    if seed == 0 {
        0.0
    } else {
        Rng::new(seed).signed()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (midpoint of the two central samples for even counts); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile, `q` in (0, 1]; 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the driver uses for its spread test.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed scalar floating-point loop (a dependent multiply-add chain, so
/// it cannot vectorise or be folded), timed before and after the run: a
/// whole-run slowdown that also shows here is the machine's clock or a
/// busy neighbour, not the code. The fastest of eight ≈ 11 ms samples,
/// because interference only ever adds time; even so it reads ±5% from one
/// call to the next on the reference machine.
pub fn calib_ms() -> f64 {
    (0..8)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(1.000_000_1_f64);
            for _ in 0..5_000_000 {
                x = x * 1.000_000_01 + 1e-12;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Calls `f` (which returns the seconds it measured for one repetition)
/// until the repetitions cover at least 50 ms and there are at least
/// three, inside one probe span; returns the median.
pub fn repeat_timed(tr: &mut Tracer, name: &'static str, mut f: impl FnMut() -> f64) -> f64 {
    let span = tr.begin(name);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3
        || (started.elapsed() < Duration::from_millis(50) && samples.len() < 100_000)
    {
        samples.push(f());
    }
    tr.end(span);
    median(&samples)
}

/// Seconds taken by one call of `f`.
pub fn time_s<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Minimal JSON string escaping for names and messages the harness writes.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float as JSON: all its digits, never `NaN`/`inf` (rendered as 0 so the
/// line stays parseable; the run is marked incorrect separately).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
