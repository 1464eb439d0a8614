//! Human-readable byte formatting for reports and experiment output.

/// Format a byte count the way the paper's Table 1 does: pick the largest
/// unit that keeps the mantissa ≥ 1, one decimal place.
///
/// ```
/// use restore_common::human_bytes;
/// assert_eq!(human_bytes(0), "0 B");
/// assert_eq!(human_bytes(27), "27 B");
/// assert_eq!(human_bytes(1_600_000_000), "1.5 GB");
/// ```
pub fn human_bytes(n: u64) -> String {
    const UNITS: [&str; 6] = ["B", "KB", "MB", "GB", "TB", "PB"];
    if n < 1024 {
        return format!("{n} B");
    }
    let mut v = n as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    format!("{v:.1} {}", UNITS[unit])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_each_unit() {
        assert_eq!(human_bytes(1023), "1023 B");
        assert_eq!(human_bytes(1024), "1.0 KB");
        assert_eq!(human_bytes(5 * 1024 * 1024), "5.0 MB");
        assert_eq!(human_bytes(3 * 1024 * 1024 * 1024), "3.0 GB");
    }
}
