//! End-to-end tests of the `cardopc` binary: flag handling contracts
//! (exit codes, usage text) and the GDS ingestion round trip —
//! a generated design exported with `--write-target-gds` and re-run from
//! that file must reproduce the direct run's stable manifest exactly.

use std::path::Path;
use std::process::{Command, Output};

fn cardopc(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cardopc"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tempdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cardopc-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let dir = tempdir("help");
    // Help is success in every mode: the user got what they asked for.
    for args in [
        &["--help"][..],
        &["-h"][..],
        &["serve", "--help"][..],
        &["worker", "-h"][..],
    ] {
        let out = cardopc(args, &dir);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("USAGE"), "{args:?}: {text}");
        assert!(text.contains("--design"), "{args:?}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_prints_package_version_and_exits_zero() {
    let dir = tempdir("version");
    for args in [
        &["--version"][..],
        &["serve", "--version"][..],
        &["worker", "--version"][..],
    ] {
        let out = cardopc(args, &dir);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        assert_eq!(
            stdout(&out).trim(),
            concat!("cardopc ", env!("CARGO_PKG_VERSION")),
            "{args:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_print_usage_and_exit_nonzero() {
    let dir = tempdir("unknown");
    for args in [
        &["--bogus"][..],
        &["serve", "--bogus"][..],
        &["worker", "--bogus"][..],
    ] {
        let out = cardopc(args, &dir);
        assert!(!out.status.success(), "{args:?} should fail");
        let text = stderr(&out);
        assert!(text.contains("unknown flag '--bogus'"), "{args:?}: {text}");
        assert!(text.contains("USAGE"), "{args:?}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_design_flags_exit_nonzero_with_actionable_messages() {
    let dir = tempdir("baddesign");
    for (args, needle) in [
        (&["--design", "warp-core"][..], "unknown design"),
        (
            &["--design", "chip.gds", "--design-tiles", "2"][..],
            "synthetic designs only",
        ),
        (
            &["--design", "gcd", "--layer", "5"][..],
            "--layer applies to GDS designs",
        ),
        (&["--layer", "bogus", "--design", "a.gds"][..], "--layer"),
        (&["--design", "missing.gds"][..], "missing.gds"),
    ] {
        let out = cardopc(args, &dir);
        assert!(!out.status.success(), "{args:?} should fail");
        let text = stderr(&out);
        assert!(text.contains(needle), "{args:?}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full real-design pipeline, as a user would drive it:
///
/// 1. Correct a generated design directly, exporting the pre-OPC target
///    as GDSII and the corrected mask as GDSII.
/// 2. Correct the *exported GDS file* with identical parameters.
/// 3. The two runs' timing-free manifests must be byte-identical (GDS
///    ingestion is lossless), and the mask export must be deterministic.
#[test]
fn gds_ingested_run_matches_direct_run_byte_for_byte() {
    let dir = tempdir("roundtrip");
    let params = [
        "--crop",
        "1024",
        "--tile",
        "512",
        "--halo",
        "256",
        "--pitch",
        "16",
        "--iterations",
        "2",
        "--threads",
        "2",
    ];

    let mut direct = vec![
        "--design",
        "gcd",
        "--run-dir",
        "direct",
        "--write-target-gds",
        "design.gds",
        "--out-gds",
        "direct-mask.gds",
    ];
    direct.extend_from_slice(&params);
    let out = cardopc(&direct, &dir);
    assert!(out.status.success(), "direct run: {}", stderr(&out));
    assert!(stdout(&out).contains("executed"), "{}", stdout(&out));

    // The exported design is already cropped and rebased; no --crop here.
    let mut gds = vec![
        "--design",
        "design.gds",
        "--run-dir",
        "gdsrun",
        "--out-gds",
        "gds-mask.gds",
    ];
    gds.extend_from_slice(&params[2..]); // skip --crop 1024
    let out = cardopc(&gds, &dir);
    assert!(out.status.success(), "gds run: {}", stderr(&out));

    let direct_manifest = std::fs::read(dir.join("direct/manifest.stable.json")).unwrap();
    let gds_manifest = std::fs::read(dir.join("gdsrun/manifest.stable.json")).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&direct_manifest),
        String::from_utf8_lossy(&gds_manifest),
        "GDS ingestion changed the correction"
    );

    let direct_mask = std::fs::read(dir.join("direct-mask.gds")).unwrap();
    let gds_mask = std::fs::read(dir.join("gds-mask.gds")).unwrap();
    assert!(!direct_mask.is_empty());
    assert_eq!(direct_mask, gds_mask, "mask export is not deterministic");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--layer` steers which shapes a GDS run corrects: asking for a layer
/// the file does not use is a clean error, and the marker layer (255) is
/// never a target.
#[test]
fn layer_filter_selects_targets_from_gds() {
    let dir = tempdir("layerpick");
    let out = cardopc(
        &[
            "--design",
            "gcd",
            "--crop",
            "768",
            "--write-target-gds",
            "design.gds",
            "--tile",
            "512",
            "--halo",
            "256",
            "--pitch",
            "16",
            "--iterations",
            "1",
            "--max-tiles",
            "1",
            "--threads",
            "1",
        ],
        &dir,
    );
    assert!(out.status.success(), "{}", stderr(&out));

    let out = cardopc(&["--design", "design.gds", "--layer", "42"], &dir);
    assert!(!out.status.success(), "layer 42 holds no shapes");
    assert!(stderr(&out).contains("42"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starts `cardopc <mode> --addr 127.0.0.1:0 [extra…]`, asks it to stop
/// with `POST <stop_path>`, and returns the answer's status and the
/// process's exit status. The answer must arrive before the process
/// exits: a connection closed without one is a failure.
fn start_then_stop(mode: &str, extra: &[&str], stop_path: &str, dir: &Path) -> (u16, bool) {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_cardopc"))
        .arg(mode)
        .args(["--addr", "127.0.0.1:0"])
        .args(extra)
        .current_dir(dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary runs");
    let mut announce = String::new();
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout was piped"));
    stdout.read_line(&mut announce).expect("announce line");
    let addr: std::net::SocketAddr = announce
        .trim()
        .rsplit(' ')
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unexpected announce line {announce:?}"));
    let answer = cardopc_serve::client::request_with_timeout(
        addr,
        "POST",
        stop_path,
        None,
        std::time::Duration::from_secs(30),
    );
    let status = child.wait().expect("process exits");
    let answer = answer.unwrap_or_else(|e| panic!("{mode}: no answer to {stop_path}: {e}"));
    (answer.status, status.success())
}

/// Ten serve and ten worker processes, started and stopped at once: the
/// load widens the window between the stop request waking the main
/// thread and the handler writing its answer.
#[test]
fn drain_and_shutdown_answer_before_the_process_exits() {
    let dir = tempdir("stop");
    let dir = &dir;
    std::thread::scope(|scope| {
        for round in 0..10 {
            scope.spawn(move || {
                let runs = format!("runs-{round}");
                let served = start_then_stop("serve", &["--run-root", &runs], "/admin/drain", dir);
                assert_eq!(served, (202, true), "serve round {round}");
            });
            scope.spawn(move || {
                let worker = start_then_stop("worker", &[], "/admin/shutdown", dir);
                assert_eq!(worker, (202, true), "worker round {round}");
            });
        }
    });
    let _ = std::fs::remove_dir_all(dir);
}
