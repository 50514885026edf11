//! Outside-in process measurement through Linux `/proc`: CPU seconds of
//! waited-for children, a process's own CPU seconds, and its peak resident
//! set (`VmHWM`), plus a monitor that runs one child to completion.

use std::io;
use std::process::{Child, Command, ExitStatus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use crate::clock;

/// `/proc` reports CPU time in `USER_HZ` ticks, fixed at 100 on Linux.
const TICKS_PER_S: f64 = 100.0;

/// How often the monitor samples a running child's `VmHWM`.
const RSS_POLL: Duration = Duration::from_millis(20);

/// The CPU-time fields of a `/proc/<pid>/stat` line, in ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatCpu {
    /// User time of the process itself.
    pub utime: u64,
    /// System time of the process itself.
    pub stime: u64,
    /// User time of its waited-for children.
    pub cutime: u64,
    /// System time of its waited-for children.
    pub cstime: u64,
}

impl StatCpu {
    /// The process's own CPU seconds.
    pub fn own_s(&self) -> f64 {
        (self.utime + self.stime) as f64 / TICKS_PER_S
    }

    /// CPU seconds of the children it has waited for.
    pub fn children_s(&self) -> f64 {
        (self.cutime + self.cstime) as f64 / TICKS_PER_S
    }
}

/// Parses the CPU fields (14–17) of a `/proc/<pid>/stat` line. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat(line: &str) -> Option<StatCpu> {
    let rest = &line[line.rfind(')')? + 1..];
    // After the name, field 3 (state) is index 0, so field n is index n - 3.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(StatCpu {
        utime: field(14)?,
        stime: field(15)?,
        cutime: field(16)?,
        cstime: field(17)?,
    })
}

/// Parses `VmHWM` (peak resident set, kB) out of a `/proc/<pid>/status`
/// text. `None` when absent, as for a zombie.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kb = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kb)
}

/// CPU fields of `pid` (`"self"` for this process).
pub fn stat_of(pid: &str) -> io::Result<StatCpu> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat(&text).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unparsable /proc/{pid}/stat"),
        )
    })
}

/// Peak resident set of `pid` in MB, if it is still running.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// One child run, measured from outside.
#[derive(Debug)]
pub struct ProcRun {
    /// How the child exited.
    pub status: ExitStatus,
    /// Host seconds from spawn to exit.
    pub wall_s: f64,
    /// User + system CPU seconds of the child (and anything it waited for).
    pub cpu_s: f64,
    /// Last `VmHWM` sampled before exit, MB; 0 when the child exited before
    /// the first sample.
    pub peak_rss_mb: f64,
}

/// Runs `cmd` to completion. A waiter thread blocks in `wait` and stamps
/// the exit, while this thread samples `VmHWM` every [`RSS_POLL`]. The last
/// sample is kept rather than the largest: an early sample can still see
/// the pre-`exec` image, and `VmHWM` never falls within one image. CPU time
/// is the growth of this process's `cutime + cstime`, so the caller must
/// not be waiting for any other child concurrently.
pub fn run_measured(cmd: &mut Command) -> io::Result<ProcRun> {
    let before = stat_of("self")?;
    let start = clock::now();
    let mut child = cmd.spawn()?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let sampler = thread::current();
    let mut last_rss = 0.0;
    let waited = thread::scope(|s| {
        let waiter = s.spawn(|| {
            let status = child.wait();
            let end = clock::now();
            done.store(true, Ordering::SeqCst);
            sampler.unpark();
            status.map(|status| (status, end))
        });
        while !done.load(Ordering::SeqCst) {
            if let Some(mb) = peak_rss_mb(pid) {
                last_rss = mb;
            }
            thread::park_timeout(RSS_POLL);
        }
        waiter.join().expect("waiter thread does not panic")
    });
    let (status, end) = waited?;
    let after = stat_of("self")?;
    Ok(ProcRun {
        status,
        wall_s: clock::between(start, end),
        cpu_s: after.children_s() - before.children_s(),
        peak_rss_mb: last_rss,
    })
}

/// A long-running child (a server) that is killed and reaped when dropped,
/// so no exit path of the benchmark leaves it behind.
pub struct Reaped(Child);

impl Reaped {
    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.0.id()
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        // An error means it already exited; wait() still reaps it.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `cmd` and waits (polling every millisecond, up to `timeout_s`)
/// until `ready` appears non-empty. Returns the child and the seconds from
/// spawn to ready.
pub fn spawn_until_file(
    cmd: &mut Command,
    ready: &std::path::Path,
    timeout_s: f64,
) -> io::Result<(Reaped, f64)> {
    let start = clock::now();
    let mut child = Reaped(cmd.spawn()?);
    loop {
        if std::fs::metadata(ready).is_ok_and(|m| m.len() > 0) {
            return Ok((child, clock::since(start)));
        }
        if let Some(status) = child.0.try_wait()? {
            return Err(io::Error::other(format!(
                "exited with {status} before writing {}",
                ready.display()
            )));
        }
        if clock::since(start) > timeout_s {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{} did not appear", ready.display()),
            ));
        }
        clock::sleep_ms(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let line = "4242 (a (weird) name) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    250 31 7 3 20 0 1 0 123 456 789";
        let cpu = parse_stat(line).unwrap();
        assert_eq!(
            cpu,
            StatCpu {
                utime: 250,
                stime: 31,
                cutime: 7,
                cstime: 3
            }
        );
        assert!((cpu.own_s() - 2.81).abs() < 1e-9);
        assert!((cpu.children_s() - 0.10).abs() < 1e-9);
        assert_eq!(parse_stat("12 (x) S 1 2"), None, "truncated line");
        assert_eq!(parse_stat("no paren at all"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tbtbsim\nVmPeak:\t  200 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\nState:\tZ\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None, "unit must be kB");
    }

    #[test]
    fn this_process_is_readable() {
        let me = stat_of("self").unwrap();
        assert!(me.own_s() >= 0.0);
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
    }

    #[test]
    fn a_measured_child_reports_its_wall_and_exit() {
        let run = run_measured(Command::new("sleep").arg("0.2")).unwrap();
        assert!(run.status.success());
        assert!(run.wall_s >= 0.2 && run.wall_s < 5.0, "{run:?}");
        assert!(run.cpu_s >= 0.0 && run.cpu_s < 0.2, "sleep burns no CPU");
    }
}
