//! Guards for the contracts enforced outside the linter's own rules.
//!
//! Default hashers, wall-clock and env reads, and threads, channels, locks
//! and atomics outside the two runners (`clippy.toml`'s
//! `disallowed-types`/`disallowed-methods`), unwrap/expect/panic in setup
//! code (`#![deny(..)]` headers), and hermeticity (lockfiles with no
//! registry or git packages) are not silcfm-lint rules. Deleting or
//! weakening any of that configuration must still fail `cargo test`, just
//! as deleting a rule would.

use std::fs;
use std::path::{Path, PathBuf};

/// Workspace root: compile-time constant, independent of invocation dir.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// The `{ path = "..", reason = ".." }` entries of the top-level array
/// `key` in `toml`, as `(path, reason)`. Commented-out lines do not count.
fn disallowed(toml: &str, key: &str) -> Vec<(String, String)> {
    let quoted = |line: &str, field: &str| -> String {
        line.split_once(&format!("{field} = \""))
            .and_then(|(_, rest)| rest.split_once('"'))
            .map(|(value, _)| value.to_string())
            .unwrap_or_default()
    };
    let lines = toml.lines().map(str::trim).filter(|l| !l.starts_with('#'));
    lines
        .skip_while(|l| !l.starts_with(&format!("{key} = [")))
        .skip(1)
        .take_while(|l| *l != "]")
        .filter(|l| l.starts_with('{'))
        .map(|l| (quoted(l, "path"), quoted(l, "reason")))
        .collect()
}

/// Asserts that `clippy.toml`'s `key` array lists each of `paths` with a
/// non-empty reason.
fn assert_disallowed(toml: &str, key: &str, paths: &[&str]) {
    let entries = disallowed(toml, key);
    for path in paths {
        let entry = entries.iter().find(|(p, _)| p == path);
        assert!(
            entry.is_some(),
            "clippy.toml {key} lost `{path}`: {entries:?}"
        );
        assert!(
            entry.is_some_and(|(_, reason)| !reason.is_empty()),
            "clippy.toml {key} entry `{path}` needs a reason"
        );
    }
}

#[test]
fn clippy_toml_disallows_every_default_hasher_clock_and_env_read() {
    let toml = read("clippy.toml");
    for (key, paths) in [
        (
            "disallowed-types",
            &[
                "std::collections::HashMap",
                "std::collections::HashSet",
                "std::time::Instant",
                "std::time::SystemTime",
            ][..],
        ),
        (
            "disallowed-methods",
            &[
                "std::time::Instant::now",
                "std::env::var",
                "std::env::var_os",
                "std::env::vars",
                "std::env::vars_os",
            ][..],
        ),
    ] {
        assert_disallowed(&toml, key, paths);
    }
    for flag in [
        "allow-unwrap-in-tests",
        "allow-expect-in-tests",
        "allow-panic-in-tests",
    ] {
        assert!(
            toml.lines().any(|l| l.trim() == format!("{flag} = true")),
            "clippy.toml must set `{flag} = true`"
        );
    }
}

#[test]
fn clippy_toml_confines_threads_channels_locks_and_atomics() {
    let toml = read("clippy.toml");
    assert_disallowed(
        &toml,
        "disallowed-methods",
        &[
            "std::thread::spawn",
            "std::thread::scope",
            "std::thread::Builder::spawn",
            "std::sync::mpsc::channel",
            "std::sync::mpsc::sync_channel",
        ],
    );
    let mut types: Vec<String> = ["Mutex", "RwLock", "Condvar", "Barrier", "OnceLock"]
        .iter()
        .map(|t| format!("std::sync::{t}"))
        .collect();
    for width in ["8", "16", "32", "64", "size"] {
        for sign in ["I", "U"] {
            types.push(format!("std::sync::atomic::Atomic{sign}{width}"));
        }
    }
    types.push("std::sync::atomic::AtomicBool".to_string());
    types.push("std::sync::atomic::AtomicPtr".to_string());
    let types: Vec<&str> = types.iter().map(String::as_str).collect();
    assert_disallowed(&toml, "disallowed-types", &types);
}

#[test]
fn only_the_tooling_crates_opt_out_of_the_workspace_clippy_toml() {
    // Clippy reads the nearest clippy.toml, so a nested one silently
    // exempts its crate from every entry in the workspace file.
    let mut nested: Vec<String> = fs::read_dir(root().join("crates"))
        .expect("crates/ readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|dir| dir.join("clippy.toml").is_file() || dir.join(".clippy.toml").is_file())
        .filter_map(|dir| Some(dir.file_name()?.to_string_lossy().to_string()))
        .collect();
    nested.sort();
    assert_eq!(nested, ["bench", "lint"]);
}

#[test]
fn setup_modules_deny_unwrap_expect_and_panic() {
    const HEADER: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";
    for rel in [
        "crates/dram/src/config.rs",
        "crates/core/src/params.rs",
        "crates/sim/src/experiment.rs",
        "crates/fault/src/lib.rs",
    ] {
        let src = read(rel);
        let first = src
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && !l.starts_with("//!"));
        assert_eq!(
            first,
            Some(HEADER),
            "{rel} must open with the setup-code deny header"
        );
    }
}

#[test]
fn lockfiles_hold_only_workspace_path_packages() {
    // Registry and git packages carry a `source = ".."` line; path
    // packages do not. This also covers transitive dependencies and the
    // benchmark's own workspace, which no manifest scan would see.
    for rel in ["Cargo.lock", "perfbench/Cargo.lock"] {
        let lock = read(rel);
        assert!(lock.contains("[[package]]"), "{rel} lists no packages");
        let external: Vec<&str> = lock
            .lines()
            .filter(|l| l.trim_start().starts_with("source ="))
            .collect();
        assert!(
            external.is_empty(),
            "{rel} pulls non-path packages (the workspace builds offline, \
             with no external crates): {external:?}"
        );
    }
}
