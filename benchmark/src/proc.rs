//! Child processes of the benchmark: the `htd` runs it times, with
//! their wall time and peak resident set.
//!
//! Peak RSS comes from the kernel's per-child accounting (`wait4`'s
//! `ru_maxrss`), so it is exact for each `htd` process and never picks
//! up the benchmark's own memory or that of the build.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct timeval` of the Linux x86-64/aarch64 ABI.
#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the Linux 64-bit ABI: two timevals followed by
/// fourteen longs, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    longs: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exit {
    /// Exit code, `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Peak resident set of the process, KiB.
    pub peak_rss_kb: u64,
}

impl Exit {
    /// Exited normally with code 0.
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// Waits for `child` to end and returns its exit and peak RSS. The
/// child must not have been waited for through `std` (which would have
/// reaped it already).
pub fn reap(child: Child) -> io::Result<Exit> {
    let pid = i32::try_from(child.id())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "pid out of range"))?;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel ABI expects (`int` and `struct rusage`); `pid` names
        // our own unreaped child, so the call touches no other process.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // WIFEXITED / WEXITSTATUS of <sys/wait.h>.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        peak_rss_kb: u64::try_from(usage.longs[0]).unwrap_or(0),
    })
}

/// One finished `htd` invocation.
#[derive(Debug, Clone)]
pub struct Run {
    /// How it ended.
    pub exit: Exit,
    /// Wall time from spawn to reap.
    pub wall: Duration,
    /// Everything it wrote to standard error.
    pub stderr: String,
}

/// The `htd` binary under test plus the scratch directory its runs
/// write into.
#[derive(Debug, Clone)]
pub struct Htd {
    /// Path of the `htd` executable.
    pub bin: PathBuf,
    /// Directory for child stdout/stderr captures.
    pub scratch: PathBuf,
}

impl Htd {
    /// A command for `htd args…` with the working directory set to the
    /// scratch directory.
    pub fn command(&self, args: &[String]) -> Command {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args).current_dir(&self.scratch);
        cmd
    }

    /// Runs `htd args…` to completion, timing it from spawn to reap.
    pub fn run(&self, args: &[String]) -> io::Result<Run> {
        let err_path = self.scratch.join("stderr.txt");
        let err_file = File::create(&err_path)?;
        let start = Instant::now();
        let child = self
            .command(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err_file)
            .spawn()?;
        let exit = reap(child)?;
        let wall = start.elapsed();
        let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
        Ok(Run { exit, wall, stderr })
    }
}

/// Builds `htd` from the checkout at `root` (release profile, offline)
/// and returns its path under the cargo target directory.
pub fn build_htd(root: &Path) -> io::Result<PathBuf> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "htd-cli",
            "--bin",
            "htd",
        ])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!("building htd failed: {status}")));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let bin = target.join("release").join("htd");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(io::Error::other(format!(
            "no htd binary at {}",
            bin.display()
        )))
    }
}
