//! What a timing report records besides its numbers: the host it ran
//! on, and the median of its repeats. Shared by `canonbench` and
//! `simbench`, whose committed reports `benchgate` holds to a `host`
//! block.

use qelect_agentsim::json;

/// Median of a sample (0.0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The machine a report was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Cores available to the process.
    pub cores: usize,
    /// `rustc -V`, when `rustc` runs.
    pub rustc: Option<String>,
    /// `git rev-parse HEAD`, when run inside a git checkout.
    pub git_rev: Option<String>,
}

impl Host {
    /// Probe the current process's host.
    pub fn probe() -> Host {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["-V"]),
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The `host` object of a report.
    pub fn to_json(&self) -> String {
        let text = |v: &Option<String>| v.as_deref().map_or("null".into(), json::escape);
        format!(
            "{{\"cores\": {}, \"rustc\": {}, \"git_rev\": {}}}",
            self.cores,
            text(&self.rustc),
            text(&self.git_rev)
        )
    }
}

/// The trimmed standard output of a command that ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}
