//! Order statistics and process accounting shared by every workload.

use std::time::Instant;

/// Nearest-rank percentile (`p` in 0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU fields. Linux has
/// reported `USER_HZ = 100` on every architecture since 2.6.
const CLOCK_TICKS: f64 = 100.0;

/// User + system CPU seconds of process `pid` (all threads, including
/// ones that already exited), from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name is parenthesised and may hold spaces; fields
    // after it are space-separated, utime and stime being the 12th and
    // 13th after the closing parenthesis.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: malformed"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: missing field {i}"))
    };
    Ok((tick(11)? + tick(12)?) / CLOCK_TICKS)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

/// A small deterministic generator (SplitMix64) for the benchmark's own
/// choices, so inputs depend only on `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
