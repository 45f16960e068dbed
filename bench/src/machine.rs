//! Machine fingerprint and process memory, read from `/proc`.

use std::process::Command;

/// What every report is stamped with, so two reports are only compared
/// when they came from the same kind of box and toolchain.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub mem_mib: u64,
    pub rustc: String,
    pub commit: String,
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|line| line.starts_with(key))
        .and_then(|line| line.split_once(':'))
        .map(|(_, value)| value.trim().to_string())
}

fn kib_field(path: &str, key: &str) -> Option<u64> {
    proc_field(path, key)?.split_whitespace().next()?.parse().ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Fingerprint {
    pub fn read() -> Self {
        Fingerprint {
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            cpu_model: proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".to_string()),
            mem_mib: kib_field("/proc/meminfo", "MemTotal").unwrap_or(0) / 1024,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            // The driver's checkout is not a git repository; the commit
            // is stamped only where it can be known.
            commit: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"mem_mib\": {}, \"rustc\": \"{}\", \
             \"commit\": \"{}\"}}",
            self.nproc,
            self.cpu_model.replace('"', "'"),
            self.mem_mib,
            self.rustc.replace('"', "'"),
            self.commit
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    kib_field("/proc/self/status", "VmHWM").unwrap_or(0) as f64 / 1024.0
}
