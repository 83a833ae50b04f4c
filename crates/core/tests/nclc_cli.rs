//! Smoke tests of the `nclc` command-line compiler.

use std::process::Command;

fn nclc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nclc"))
}

fn write(dir: &std::path::Path, name: &str, content: &str) -> std::path::PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, content).expect("write temp file");
    p
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("nclc-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

const PROG: &str = r#"
_net_ _at_("s1") int total[1] = {0};
_net_ _out_ void count(int *data) { total[0] += data[0]; _drop(); }
"#;
const AND: &str = "host a\nhost b\nswitch s1\nlink a s1\nlink b s1\n";

#[test]
fn compiles_and_emits_p4() {
    let dir = tmpdir("ok");
    let prog = write(&dir, "prog.ncl", PROG);
    let and = write(&dir, "net.and", AND);
    let out = dir.join("out");
    let result = nclc()
        .arg(&prog)
        .args(["--and"])
        .arg(&and)
        .args([
            "--mask", "count=1", "--emit", "p4", "--emit", "report", "--emit", "cost", "-o",
        ])
        .arg(&out)
        .output()
        .expect("runs");
    assert!(
        result.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("accepted"), "{stdout}");
    let p4 = std::fs::read_to_string(out.join("s1.p4")).expect("P4 written");
    assert!(p4.contains("V1Switch"));

    // The cost table is the report's pipeline: `s1: N stages, …` and
    // `pipeline: N stages, …` name the same N.
    let stages_after = |prefix: &str| -> String {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no '{prefix}' line in: {stdout}"));
        line[prefix.len()..]
            .split_once(" stages")
            .unwrap_or_else(|| panic!("no stage count in '{line}'"))
            .0
            .to_string()
    };
    let report = stages_after("s1: ");
    assert_eq!(stages_after("pipeline: "), report, "{stdout}");
    assert!(report.parse::<usize>().is_ok_and(|n| n > 1), "{stdout}");
    assert!(stdout.contains("  count: "), "{stdout}");
}

/// A server location has no pipeline: no P4 file, and the report names
/// it as built for the software target.
#[test]
fn a_server_is_reported_as_a_software_target() {
    let dir = tmpdir("server");
    let placed = PROG.replace("_out_ void", "_out_ _at_(\"s1\") void");
    let prog = write(&dir, "prog.ncl", &placed);
    let and = "host a\nhost b\nswitch tor\nserver s1\nlink a tor\nlink b tor\nlink s1 tor\n";
    let and = write(&dir, "net.and", and);
    let out = dir.join("out");
    let result = nclc()
        .arg(&prog)
        .args(["--and"])
        .arg(&and)
        .args([
            "--mask", "count=1", "--emit", "p4", "--emit", "report", "-o",
        ])
        .arg(&out)
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(result.status.success(), "{stdout}");
    assert!(stdout.contains("s1: software target"), "{stdout}");
    assert!(out.join("tor.p4").exists() && !out.join("s1.p4").exists());
}

#[test]
fn unknown_emit_values_are_refused() {
    let dir = tmpdir("emit");
    let prog = write(&dir, "prog.ncl", PROG);
    let and = write(&dir, "net.and", AND);
    let result = nclc()
        .arg(&prog)
        .args(["--and"])
        .arg(&and)
        .args(["--mask", "count=1", "--emit", "cots", "-o"])
        .arg(dir.join("out"))
        .output()
        .expect("runs");
    assert_eq!(result.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("unknown --emit value 'cots'"), "{stderr}");
    assert!(stderr.contains("|trace|"), "usage lists trace: {stderr}");
    assert!(result.stdout.is_empty());
}

#[test]
fn reports_frontend_errors_with_location() {
    let dir = tmpdir("err");
    let prog = write(&dir, "bad.ncl", "_net_ _out_ void k(int *d) { goto x; }");
    let and = write(&dir, "net.and", AND);
    let result = nclc()
        .arg(&prog)
        .args(["--and"])
        .arg(&and)
        .output()
        .expect("runs");
    assert!(!result.status.success());
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(
        stderr.contains("error") && stderr.contains(":1:"),
        "{stderr}"
    );
}

#[test]
fn missing_files_fail_cleanly() {
    let result = nclc()
        .arg("/nonexistent.ncl")
        .args(["--and", "/nonexistent.and"])
        .output()
        .expect("runs");
    assert!(!result.status.success());
    assert!(String::from_utf8_lossy(&result.stderr).contains("cannot read"));
}
