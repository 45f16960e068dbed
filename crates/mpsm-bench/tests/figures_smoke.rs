//! The figure binaries are run, not only compiled: `repro_all --quick`
//! must launch every binary under `src/bin/` and finish cleanly. This
//! also enforces the crate's keep-rule — a bin lives here iff
//! `repro_all` runs it.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

#[test]
fn repro_all_quick_runs_every_figure_binary() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .arg("--quick")
        .output()
        .expect("launch repro_all");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "repro_all --quick failed ({}):\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.trim_end().ends_with("All experiments completed."), "no trailer:\n{stdout}");
    for bad in ["NaN", "inf"] {
        assert!(!stdout.contains(bad), "`{bad}` in the figure output:\n{stdout}");
    }

    let ran: BTreeSet<String> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("===== ")?.strip_suffix(" =====").map(str::to_string))
        .collect();
    let bins: BTreeSet<String> = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("src/bin")
        .read_dir()
        .expect("src/bin")
        .map(|entry| entry.expect("dir entry").path())
        .map(|path| path.file_stem().expect("stem").to_string_lossy().into_owned())
        .filter(|stem| stem != "repro_all")
        .collect();
    assert_eq!(ran, bins, "repro_all's EXPERIMENTS and src/bin/ have drifted apart");
}
