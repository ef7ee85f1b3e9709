//! Process-level readings from `/proc/self`.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields: `USER_HZ`, which is
/// 100 on every Linux ABI.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `utime + stime` out of a `/proc/<pid>/stat` line, in ticks. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// User + system CPU seconds this process has used so far, every thread
/// included (threads that already exited too).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("utime and stime in /proc/self/stat");
    ticks as f64 / CLOCK_TICKS_PER_S
}

/// `VmHWM` out of `/proc/<pid>/status`, in kB.
pub fn parse_status_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = parse_status_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status");
    kb as f64 * 1024.0 / 1e6
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 700 55 0 0 20 0 3 0 100 1 2";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(755));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_status_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(nproc() >= 1);
    }
}
