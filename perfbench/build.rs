//! Records the toolchain and build profile in the binary, so every result
//! names what built it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let profile = format!(
        "{} opt-level={} debug-assertions={}",
        std::env::var("PROFILE").unwrap_or_default(),
        std::env::var("OPT_LEVEL").unwrap_or_default(),
        std::env::var("CARGO_CFG_DEBUG_ASSERTIONS").is_ok(),
    );
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
