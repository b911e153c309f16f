//! Peak memory and CPU time of a process, from Linux `/proc`.

/// Microseconds per `utime`/`stime` tick (`USER_HZ` is 100 on Linux).
pub const TICK_US: f64 = 10_000.0;

/// `VmHWM` (peak resident set) in KiB of `pid` (`"self"` allowed).
pub fn peak_rss_kib(pid: &str) -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// User plus system CPU ticks consumed so far by every thread of `pid`.
pub fn cpu_ticks(pid: &str) -> Option<u64> {
    parse_cpu_ticks(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Machine-wide ticks stolen by the hypervisor (the `steal` column of
/// `/proc/stat`): time the virtual CPUs were runnable but not running.
pub fn steal_ticks() -> Option<u64> {
    parse_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

fn parse_steal(stat: &str) -> Option<u64> {
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Fields 14 and 15 of `/proc/<pid>/stat`, counted after the command
/// name, which may itself contain spaces and parentheses.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_stat() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    4321 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(4321));
        assert_eq!(parse_vm_hwm("Name: x\n"), None);
        let stat = "4242 (perf (b) x) S 1 4242 4242 0 -1 4194560 200 0 0 0 \
                    150 25 0 0 20 0 5 0 100 1000 200";
        assert_eq!(parse_cpu_ticks(stat), Some(175));
        assert_eq!(parse_cpu_ticks("1 (x) S 1"), None);
        let machine = "cpu  1818972 0 265646 2611550 1008 0 102544 84889 0 0\ncpu0 1 2 3\n";
        assert_eq!(parse_steal(machine), Some(84889));
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_kib("self").is_some_and(|k| k > 0));
        assert!(cpu_ticks("self").is_some());
    }
}
