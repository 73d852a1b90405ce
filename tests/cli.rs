//! Smoke tests of the `xmorph` command-line tool.

use std::io::Write;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_xmorph");

const DATA: &str = "<data>\
    <book><title>X</title><author><name>Tim</name></author></book>\
    <book><title>Y</title><author><name>Ann</name></author></book>\
    </data>";

fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xmorph-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(BIN).args(args).output().expect("spawn xmorph");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn apply_transforms() {
    let input = temp_file("apply.xml", DATA);
    let (stdout, stderr, ok) = run(&[
        "apply",
        "--guard",
        "MORPH author [ name book [ title ] ]",
        "--input",
        input.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("<author><name>Tim</name><book><title>X</title></book></author>"));
    assert!(stderr.contains("strongly-typed"));
}

#[test]
fn apply_reads_stdin() {
    let mut child = Command::new(BIN)
        .args([
            "apply",
            "--guard",
            "MORPH title",
            "--input",
            "-",
            "--no-wrapper",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"<d><title>Solo</title></d>")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "<title>Solo</title>"
    );
}

#[test]
fn analyze_reports() {
    let input = temp_file("analyze.xml", DATA);
    let (stdout, _, ok) = run(&[
        "analyze",
        "--guard",
        "MORPH author [ name ]",
        "--input",
        input.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(stdout.contains("target shape:"));
    assert!(stdout.contains("label-to-type report"));
    assert!(stdout.contains("information-loss report"));
    assert!(stdout.contains("admitted"));
}

#[test]
fn rejected_guard_fails_with_explanation() {
    let fig1c = "<data><author><name>T</name>\
        <book><title>X</title><publisher><name>W</name></publisher></book>\
        <book><title>Y</title><publisher><name>V</name></publisher></book>\
        </author></data>";
    let input = temp_file("reject.xml", fig1c);
    let (_, stderr, ok) = run(&[
        "apply",
        "--guard",
        "MORPH author [ !title name publisher [ name ] ]",
        "--input",
        input.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(stderr.contains("widening"), "{stderr}");
}

#[test]
fn shape_prints_cardinalities() {
    let input = temp_file("shape.xml", DATA);
    let (stdout, stderr, ok) = run(&["shape", "--input", input.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("book 2..2"), "{stdout}");
    assert!(stderr.contains("distinct types"));
}

#[test]
fn shred_then_apply_from_store() {
    let input = temp_file("shred.xml", DATA);
    let store = temp_file("store.db", "");
    std::fs::remove_file(&store).ok();
    let (_, stderr, ok) = run(&[
        "shred",
        "--input",
        input.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let (stdout, stderr, ok) = run(&[
        "apply",
        "--guard",
        "MORPH title",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("<title>X</title><title>Y</title>"));
    std::fs::remove_file(&store).ok();
}

/// The shape of `<a/>` in the earlier path format: the length of the
/// type table, the table (one type, its path `["a"]`), then that type's
/// card `1..1` and instance count 1.
fn path_format_shape_blob() -> Vec<u8> {
    let mut table: Vec<u8> = [1u32, 1, 1].iter().flat_map(|n| n.to_le_bytes()).collect();
    table.push(b'a');
    let mut out = (table.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&table);
    out.extend_from_slice(&1u64.to_le_bytes());
    out.push(0);
    out.extend_from_slice(&1u64.to_le_bytes());
    out.extend_from_slice(&1u64.to_le_bytes());
    out
}

#[test]
fn apply_on_a_store_in_the_old_shape_format_fails_with_a_message() {
    let input = temp_file("old-shape.xml", "<a/>");
    let store = temp_file("old-shape.db", "");
    std::fs::remove_file(&store).ok();
    let (_, stderr, ok) = run(&[
        "shred",
        "--input",
        input.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    {
        let s = xmorph_pagestore::Store::open(&store).unwrap();
        let meta = s.open_tree("meta").unwrap();
        meta.insert(b"shape", &path_format_shape_blob()).unwrap();
        s.close().unwrap();
    }
    let (stdout, stderr, ok) = run(&[
        "apply",
        "--guard",
        "MORPH a",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(!ok, "{stdout}");
    assert!(
        stderr.contains("old path format; re-shred the store"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(&store).ok();
}

#[test]
fn infer_produces_guard() {
    let (stdout, _, ok) = run(&[
        "infer",
        "--query",
        r#"for $a in doc("d")/result/author return <e>{string($a/name)}</e>"#,
    ]);
    assert!(ok);
    assert_eq!(stdout.trim(), "MORPH author [ name ]");
}

#[test]
fn query_runs_baseline_engine() {
    let input = temp_file("query.xml", DATA);
    let (stdout, _, ok) = run(&[
        "query",
        "--input",
        input.to_str().unwrap(),
        "--query",
        r#"doc("doc.xml")//title"#,
    ]);
    assert!(ok);
    assert_eq!(stdout.trim(), "<title>X</title><title>Y</title>");
}

#[test]
fn quantify_measures() {
    let input = temp_file("quantify.xml", DATA);
    let (stdout, _, ok) = run(&[
        "quantify",
        "--guard",
        "MORPH author [ name ]",
        "--input",
        input.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(stdout.contains("drops 0.0%"), "{stdout}");
}

#[test]
fn bad_usage_fails_gracefully() {
    let (_, stderr, ok) = run(&["apply"]);
    assert!(!ok);
    assert!(stderr.contains("--guard"));
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (_, stderr, ok) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}
