//! Records the build environment (rustc version, profile, git revision)
//! for the benchmark's env block.

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=SIMBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=SIMBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=SIMBENCH_GIT_REV={}", git_rev());
}

/// The commit the sources were checked out at, read from `../.git`
/// without running git; `unknown` outside a git checkout. Only files that
/// exist are registered for rerun, since a missing rerun path would
/// rebuild the benchmark on every invocation.
fn git_rev() -> String {
    let git = Path::new("../.git");
    let head_path = git.join("HEAD");
    let Ok(head) = std::fs::read_to_string(&head_path) else {
        return "unknown".into();
    };
    println!("cargo:rerun-if-changed={}", head_path.display());
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    let ref_path = git.join(reference);
    if let Ok(rev) = std::fs::read_to_string(&ref_path) {
        println!("cargo:rerun-if-changed={}", ref_path.display());
        return rev.trim().to_string();
    }
    let packed = git.join("packed-refs");
    if let Ok(refs) = std::fs::read_to_string(&packed) {
        println!("cargo:rerun-if-changed={}", packed.display());
        for line in refs.lines() {
            if let Some((rev, name)) = line.split_once(' ') {
                if name == reference {
                    return rev.to_string();
                }
            }
        }
    }
    "unknown".into()
}
