//! What the host did while the benchmark ran: peak resident set, CPU time,
//! steal, and a fixed calibration loop. All of it is reported; none of it is
//! ever used to rescale a measurement. Also the one thing the benchmark asks
//! of the host: to keep a measuring process on one CPU.

use std::time::Instant;

/// `VmHWM` (peak resident set) in MB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process in MB (0 where `/proc` is absent).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

/// The aggregate `cpu` line of `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTicks {
    pub total: u64,
    pub steal: u64,
}

/// Parses the first (`cpu `) line of `/proc/stat`: user nice system idle
/// iowait irq softirq steal [guest guest_nice]. Guest time is already
/// inside user/nice, so the total stops at steal.
pub fn parse_proc_stat(stat: &str) -> Option<CpuTicks> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map_while(|f| f.parse().ok())
        .collect();
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTicks {
        total: fields[..8].iter().sum(),
        steal: fields[7],
    })
}

pub fn cpu_ticks() -> CpuTicks {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_proc_stat(&s))
        .unwrap_or_default()
}

/// Share of all CPU time between two samples that the hypervisor gave to
/// someone else, in percent.
pub fn steal_pct(before: CpuTicks, after: CpuTicks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// `utime + stime` of this process, all threads, in clock ticks, from the
/// text of `/proc/self/stat`. The command name may hold spaces, so fields
/// are counted from the closing parenthesis.
pub fn parse_self_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds this process has used so far (Linux ticks are 1/100 s).
pub fn process_cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_self_stat_ticks(&s))
        .map_or(0.0, |t| t as f64 / 100.0)
}

/// The CPU ids in a kernel list such as `0-1` or `0,2-3,8` (the
/// `Cpus_allowed_list` line of `/proc/self/status`).
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// `sched_setaffinity(0, …)` on the calling thread, which every thread it
/// starts afterwards inherits. The standard library has no such call, and
/// this crate links nothing else, so it is the system call itself.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(mask: &[u64; 16]) -> bool {
    let ret: isize;
    // SAFETY: system call 203 reads `size_of_val(mask)` bytes at `mask`,
    // which outlives it, and writes no memory of this process; `syscall`
    // clobbers rcx and r11 only.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_mask: &[u64; 16]) -> bool {
    false
}

/// Keeps the calling thread, and every thread it starts from now on, on one
/// of the CPUs this process may use: the `nth` of them, counted round.
/// Returns the CPU, or `None` where that cannot be done (the run then
/// measures on however many CPUs it has, and says so).
///
/// Why: the benchmark's machine is two virtual CPUs of a shared host, and
/// whether two threads running at once get twice the work done or hardly
/// more than one is the hypervisor's choice of the minute (two hardware
/// threads of one core, or two cores). The repository runs annotation scans
/// and large matrix products on `available_parallelism()` threads — which
/// follows this mask — so on two CPUs an adaptation episode of `drift_heavy`
/// read 0.71 s for a quarter of an hour and 0.84 s before and after it, and
/// `trickle_big`'s set-up moved 11 % between two sets of the driver's check.
/// On one CPU the same work takes the same time whatever the other does.
pub fn pin_to_one_cpu(nth: usize) -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    let cpus = parse_cpu_list(line.split_once(':')?.1);
    let cpu = *cpus.get(nth % cpus.len().max(1))?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    set_affinity(&mask).then_some(cpu)
}

const CALIB_STEPS: u64 = 2_000_000;

/// A fixed xorshift + multiply-add loop owned by the benchmark; returns
/// million steps per second. It moves with the host's speed and with
/// nothing in the repository, which is what makes it a reference. A run
/// takes one reading before every repetition and reports their median.
pub fn calib_mops() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 1.0f64;
    let t0 = Instant::now();
    for _ in 0..CALIB_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.mul_add(1.000_000_1, (x & 0xff) as f64 * 1e-9);
    }
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box((x, acc));
    CALIB_STEPS as f64 / secs.max(1e-9) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\twarper-benchmark\nUmask:\t0022\nState:\tR (running)\n\
VmPeak:\t  812340 kB\nVmSize:\t  800000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  150000 kB\n\
Threads:\t5\n";

    #[test]
    fn vm_hwm_is_read_in_mb() {
        assert_eq!(parse_vm_hwm_mb(STATUS), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\nVmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
    }

    const STAT_A: &str = "cpu  1000 10 500 8000 40 0 50 400 0 0\n\
cpu0 500 5 250 4000 20 0 25 200 0 0\nintr 12345\n";
    const STAT_B: &str = "cpu  1600 10 700 8600 40 0 50 500 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";

    #[test]
    fn proc_stat_totals_stop_at_steal() {
        let a = parse_proc_stat(STAT_A).unwrap();
        assert_eq!(
            a,
            CpuTicks {
                total: 10_000,
                steal: 400
            }
        );
        let b = parse_proc_stat(STAT_B).unwrap();
        assert_eq!(
            b,
            CpuTicks {
                total: 11_500,
                steal: 500
            }
        );
        // 100 of the 1500 ticks in between were stolen.
        assert!((steal_pct(a, b) - 100.0 / 15.0).abs() < 1e-12);
        assert_eq!(steal_pct(a, a), 0.0);
        assert_eq!(parse_proc_stat("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 3\n"), None);
    }

    #[test]
    fn self_stat_survives_spaces_and_parens_in_the_command() {
        let stat = "4242 (warper (bench) x) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
321 45 0 0 20 0 5 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_self_stat_ticks(stat), Some(366));
        assert_eq!(parse_self_stat_ticks("no parenthesis"), None);
        assert_eq!(parse_self_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn cpu_lists_are_ranges_and_singles() {
        assert_eq!(parse_cpu_list("0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list("\t0,2-4,8"), [0, 2, 3, 4, 8]);
        assert_eq!(parse_cpu_list("3"), [3]);
        assert!(parse_cpu_list("").is_empty());
        assert!(parse_cpu_list("x-y").is_empty());
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn a_pinned_thread_and_its_children_see_one_cpu() {
        // In a thread of its own, so that the other tests keep their CPUs.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu(1).expect("Linux lets a thread pin itself");
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let line = status
                .lines()
                .find(|l| l.starts_with("Cpus_allowed_list:"))
                .unwrap();
            assert_eq!(parse_cpu_list(line.split_once(':').unwrap().1), [cpu]);
            let seen = std::thread::spawn(std::thread::available_parallelism)
                .join()
                .unwrap();
            assert_eq!(seen.map(|n| n.get()).ok(), Some(1));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn calibration_loop_reports_a_positive_rate() {
        assert!(calib_mops() > 0.0);
    }
}
