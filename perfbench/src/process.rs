//! CPU time and peak memory of the benchmark's own process, read from
//! `/proc/self` (Linux).

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process, all threads included
/// (finished ones too).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields after it are
    // plain numbers. utime and stime are fields 14 and 15.
    let after_name = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i - 3]
            .parse::<u64>()
            .expect("numeric /proc/self/stat field") as f64
    };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}
