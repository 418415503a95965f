//! Host gauges read from `/proc`, so the benchmark needs no dependency.
//! Both belong to the whole process, which is why every workload runs
//! in a process of its own.

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is not available.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status").ok().and_then(|s| parse_vm_hwm(&s)).unwrap_or(0.0)
}

fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Nanoseconds this (single-threaded) process has spent on a CPU, from
/// the first field of `/proc/self/schedstat`. Wall time minus this is
/// time the process waited for a core: steal, not work.
pub fn on_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(50.0));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }

    #[test]
    fn gauges_read_this_process() {
        assert!(peak_rss_mib() > 0.0);
        let before = on_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(on_cpu_ns() >= before);
    }
}
