//! Facts about the host a run was taken on, read from `/proc`.
//!
//! Wall-clock numbers mean nothing without them: every invocation prints
//! the core count, CPU model and load average, and `peak_rss_mb` is the
//! process's own high-water mark.

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// The first `model name` of `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The 1-minute load average, when `/proc/loadavg` is readable.
pub fn load_avg_1m() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/loadavg").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// `rustc --version` of the toolchain on the path, or `"unknown"`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// This process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The `# host:` line every invocation prints first.
pub fn host_line() -> String {
    format!(
        "# host: nproc={} cpu=\"{}\" load1m={}",
        nproc(),
        cpu_model(),
        load_avg_1m().map_or("n/a".to_string(), |l| format!("{l:.2}"))
    )
}
