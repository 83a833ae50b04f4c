//! Every deterministic example prints exactly its committed transcript.
//!
//! `experiments` and the five simulated examples read no clock and no
//! file, so their stdout is a function of the code alone; each one's is
//! committed under `examples/transcripts/<bin>.txt`. This test runs every
//! binary and compares its stdout byte for byte. On a mismatch it prints
//! a line diff and writes the new output to
//! `target/tmp/transcripts/<bin>.txt`, ready to copy over the committed
//! file once the change in output is intended. `udp_backend` is left
//! out: its figures come from the wall clock.

use std::path::Path;
use std::process::Command;

/// The binaries with committed transcripts and their paths.
const BINS: [(&str, &str); 6] = [
    ("quickstart", env!("CARGO_BIN_EXE_quickstart")),
    ("allreduce", env!("CARGO_BIN_EXE_allreduce")),
    ("kvs_cache", env!("CARGO_BIN_EXE_kvs_cache")),
    ("multi_switch", env!("CARGO_BIN_EXE_multi_switch")),
    ("dedup", env!("CARGO_BIN_EXE_dedup")),
    ("experiments", env!("CARGO_BIN_EXE_experiments")),
];

/// The lines that differ, `-` committed and `+` new, each with its line
/// number; a length difference shows as the surplus lines.
fn line_diff(old: &str, new: &str) -> String {
    let (old, new): (Vec<_>, Vec<_>) = (old.lines().collect(), new.lines().collect());
    let mut diff = String::new();
    for i in 0..old.len().max(new.len()) {
        let (a, b) = (old.get(i), new.get(i));
        if a != b {
            if let Some(a) = a {
                diff += &format!("{:>4} - {a}\n", i + 1);
            }
            if let Some(b) = b {
                diff += &format!("{:>4} + {b}\n", i + 1);
            }
        }
    }
    diff
}

#[test]
fn every_example_prints_its_committed_transcript() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("transcripts");
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("transcripts");
    let mut mismatched = Vec::new();
    for (name, exe) in BINS {
        let out = Command::new(exe).output().expect("the example starts");
        assert!(
            out.status.success(),
            "{name} failed: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        let path = committed.join(format!("{name}.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        if got != want {
            std::fs::create_dir_all(&fresh).expect("target dir is writable");
            let new_path = fresh.join(format!("{name}.txt"));
            std::fs::write(&new_path, &got).expect("target dir is writable");
            eprintln!(
                "{name}: stdout differs from {} (new output in {}):\n{}",
                path.display(),
                new_path.display(),
                line_diff(&want, &got)
            );
            mismatched.push(name);
        }
    }
    assert!(mismatched.is_empty(), "output changed: {mismatched:?}");
}
