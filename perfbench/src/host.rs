//! The host and build a result was measured on. Results from different
//! hosts or builds are not comparable, and `compare` refuses to pair them.

use crate::json::{quote, Value};

/// What a result depends on besides the code under test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// CPU model string from the kernel.
    pub cpu: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Cargo profile, opt level and debug assertions of the build.
    pub profile: String,
    /// Commit of the checkout, when it is a git checkout; else `none`.
    pub git_rev: String,
}

/// Fields that must match for two results to be compared (the git
/// revision is expected to differ between a parent and a change).
pub const COMPARED: [&str; 4] = ["nproc", "cpu", "rustc", "profile"];

impl Host {
    /// Reads the current host.
    #[must_use]
    pub fn detect() -> Self {
        Host {
            nproc: nproc(),
            cpu: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: env!("PERFBENCH_PROFILE").to_string(),
            git_rev: git_rev(),
        }
    }

    /// JSON object form.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"nproc":{},"cpu":{},"rustc":{},"profile":{},"git_rev":{}}}"#,
            self.nproc,
            quote(&self.cpu),
            quote(&self.rustc),
            quote(&self.profile),
            quote(&self.git_rev)
        )
    }

    /// Parses [`Host::to_json`] output.
    ///
    /// # Errors
    ///
    /// Names the missing field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let s = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("host record lacks {k}"))
        };
        Ok(Host {
            nproc: v
                .get("nproc")
                .and_then(Value::as_f64)
                .ok_or("host record lacks nproc")? as usize,
            cpu: s("cpu")?,
            rustc: s("rustc")?,
            profile: s("profile")?,
            git_rev: s("git_rev")?,
        })
    }

    /// The compared fields on which `self` and `other` differ.
    #[must_use]
    pub fn mismatches(&self, other: &Host) -> Vec<String> {
        let pairs = [
            (self.nproc.to_string(), other.nproc.to_string()),
            (self.cpu.clone(), other.cpu.clone()),
            (self.rustc.clone(), other.rustc.clone()),
            (self.profile.clone(), other.profile.clone()),
        ];
        COMPARED
            .iter()
            .zip(pairs)
            .filter(|(_, (a, b))| a != b)
            .map(|(k, (a, b))| format!("{k}: {a} vs {b}"))
            .collect()
    }
}

/// Worker threads the host offers.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string())
}

/// Reads `.git/HEAD` in the working directory (never a parent directory:
/// the benchmark reads only inside its checkout).
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{refname}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_round_trips_and_reports_mismatches() {
        let h = Host::detect();
        assert!(h.nproc >= 1);
        let back = Host::from_json(&crate::json::parse(&h.to_json()).unwrap()).unwrap();
        assert_eq!(back, h);
        let other = Host {
            nproc: h.nproc + 1,
            git_rev: "x".into(),
            ..h.clone()
        };
        assert_eq!(other.mismatches(&h).len(), 1);
        assert!(other.mismatches(&h)[0].starts_with("nproc"));
    }
}
