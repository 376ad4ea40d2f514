//! Small numeric and process helpers shared by the workloads.

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile: the value at 1-based rank `ceil(q · n)` of the
/// sorted sample, so `q = 0.95` over 200 samples leaves 10 beyond it.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q)]
}

/// 0-based index of the nearest-rank `q` quantile in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank quantile of latencies in which `None` marks an attempt
/// that failed. A failure counts as missing the latency limit, so when
/// the quantile falls on one the limit itself is reported: the reading
/// then means "at or beyond the limit".
pub fn quantile_with_misses(lat: &[Option<f64>], q: f64, limit: f64) -> f64 {
    if lat.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = lat.iter().map(|l| l.unwrap_or(f64::INFINITY)).collect();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q)].min(limit)
}

/// FNV-1a digest of a sequence of 64-bit words.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// [`digest`] of a float slice's exact bit patterns.
pub fn digest_f32(xs: &[f32]) -> u64 {
    digest(xs.iter().map(|x| u64::from(x.to_bits())))
}

/// High-water resident set size of this process in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
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

/// User plus system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the
    // parenthesised command name, in clock ticks (100 per second on
    // Linux).
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

pub const MB: f64 = 1024.0 * 1024.0;
