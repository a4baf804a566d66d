//! Child processes timed from spawn to exit, with their peak resident
//! set size from the kernel's accounting (`wait4`).

use std::io;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` on x86-64 Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// `wait4` option: return at once when the child has not exited.
const WNOHANG: i32 = 1;

/// How a child ended.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// Reaps `child` and returns its exit status with its peak RSS. The
/// `Child` handle is consumed: after `wait4` has reaped the process the
/// standard library must not wait on it again.
pub fn wait(child: Child) -> io::Result<Exit> {
    match reap(child, None)? {
        Ok(exit) => Ok(exit),
        Err(_) => unreachable!("a blocking wait returns only once the child exits"),
    }
}

/// [`wait`], but hands `child` back when it has not exited within
/// `timeout`.
pub fn wait_timeout(child: Child, timeout: Duration) -> io::Result<Result<Exit, Child>> {
    reap(child, Some(Instant::now() + timeout))
}

fn reap(child: Child, deadline: Option<Instant>) -> io::Result<Result<Exit, Child>> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    let options = if deadline.is_some() { WNOHANG } else { 0 };
    loop {
        // SAFETY: `pid` is our own unreaped child; `status` and `usage`
        // are live, writable, and laid out as the kernel ABI requires.
        let r = unsafe { wait4(pid, &mut status, options, &mut usage) };
        if r == pid {
            break;
        }
        if r < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        } else if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(Err(child));
        } else {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    drop(child);
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    Ok(Ok(Exit {
        code,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    }))
}

/// Runs a command to completion with its output in `log`, returning the
/// wall seconds from spawn to exit.
pub fn run_logged(cmd: &mut Command, log: &std::path::Path) -> Result<(f64, Exit), String> {
    let out = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let err = out.try_clone().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))?;
    let exit = wait(child).map_err(|e| e.to_string())?;
    Ok((start.elapsed().as_secs_f64(), exit))
}

/// Peak resident set size of this process so far, MiB.
pub fn self_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
