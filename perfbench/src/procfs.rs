//! Process counters read from `/proc/self`, std only.
//!
//! Each measured run gets its own process, so these are that run's own
//! figures: CPU time from `stat`, peak resident set from `status` (VmHWM)
//! and bytes written from `io` (`wchar`, which counts every `write` call,
//! whether or not it reaches the disk).

use std::fs;

/// Linux reports `utime`/`stime` in USER_HZ ticks, fixed at 100 per second
/// for the `/proc` interface on every architecture Rust targets.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name in field 2 may hold spaces and parentheses, so the fields
/// are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, so utime (14) and stime (15) sit at
    // offsets 11 and 12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set in bytes from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_bytes(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kib * 1024)
}

/// Bytes passed to `write`-family calls from the text of `/proc/<pid>/io`.
pub fn parse_wchar(io: &str) -> Option<u64> {
    let line = io.lines().find(|l| l.starts_with("wchar:"))?;
    line["wchar:".len()..].trim().parse().ok()
}

pub fn cpu_seconds() -> f64 {
    read("/proc/self/stat", parse_cpu_seconds)
}

pub fn peak_rss_bytes() -> u64 {
    read("/proc/self/status", parse_vm_hwm_bytes)
}

pub fn wchar() -> u64 {
    read("/proc/self/io", parse_wchar)
}

/// Resets VmHWM to the current resident set, so a later peak belongs to
/// the work done after this call.
pub fn reset_peak_rss() {
    fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
}

fn read<T>(path: &str, parse: fn(&str) -> Option<T>) -> T {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    parse(&text).unwrap_or_else(|| panic!("unexpected format in {path}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_last_paren() {
        let stat = "4242 (odd) name)) R 1 4242 1 0 -1 4194304 81 0 0 0 250 75 0 0 20 0 3 0 \
                    238261 2703360 284 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.25));
        assert_eq!(parse_cpu_seconds("no parens here"), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_bytes() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    1768 kB\nVmRSS:\t 1500 kB\n";
        assert_eq!(parse_vm_hwm_bytes(status), Some(1768 * 1024));
        assert_eq!(parse_vm_hwm_bytes("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_bytes("Name:\tx\n"), None);
    }

    #[test]
    fn wchar_is_read_from_io() {
        let io = "rchar: 3980\nwchar: 15728640\nsyscr: 9\nsyscw: 0\n";
        assert_eq!(parse_wchar(io), Some(15_728_640));
        assert_eq!(parse_wchar("rchar: 1\n"), None);
    }

    #[test]
    fn live_counters_parse_on_this_kernel() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_bytes() > 0);
        let before = wchar();
        // `wchar` counts bytes handed to `write`, wherever they go.
        std::fs::write("/dev/null", [0u8; 4096]).unwrap();
        assert!(wchar() >= before + 4096);
    }
}
