//! The machine side of a run: fingerprint, peak memory and the scratch
//! directory every job, figure and span dump goes under.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::workload::Plan;

/// `key=value` pairs identifying the machine, toolchain and thread plan.
pub fn fingerprint(plan: &Plan) -> Vec<(&'static str, String)> {
    vec![
        ("nproc", plan.nproc.to_string()),
        ("cpu", cpu_model()),
        ("rustc", command_line("rustc", &["-V"])),
        ("git_head", command_line("git", &["rev-parse", "HEAD"])),
        ("queue_workers", plan.workers.to_string()),
        ("clients", plan.clients.to_string()),
        ("sweep_threads", plan.sweep_threads.to_string()),
    ]
}

/// First line of a command's standard output, or `unknown` when it cannot
/// run (a checkout without `.git`, a missing tool).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

/// Where the scratch directories of every run live, relative to the
/// working directory; removed again once the last run leaves it empty.
const SCRATCH_ROOT: &str = ".bench_tmp";

/// A scratch directory removed when dropped.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates an empty `.bench_tmp/run-<pid>` under the working directory.
    pub fn create() -> io::Result<Scratch> {
        let path = Path::new(SCRATCH_ROOT).join(format!("run-{}", std::process::id()));
        if path.exists() {
            fs::remove_dir_all(&path)?;
        }
        fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.path.join(name);
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Errors are ignored: a panic here would abort an unwinding run.
        let _ = fs::remove_dir_all(&self.path);
        let _ = fs::remove_dir(SCRATCH_ROOT);
    }
}
