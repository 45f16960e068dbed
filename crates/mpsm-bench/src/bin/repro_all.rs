//! Run every figure experiment in sequence (quick scale by default).
//!
//! ```text
//! cargo run --release -p mpsm-bench --bin repro_all -- --scale 1048576 --threads 8
//! ```
//!
//! Each experiment binary can also be run individually; README.md
//! ("Reproducing the paper's figures") maps figures to binaries. A bin
//! lives in this crate iff it is listed in `EXPERIMENTS` —
//! `tests/figures_smoke.rs` holds the two equal.

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "fig01_numa",
    "fig02_access_audit",
    "fig04_window_trace",
    "fig09_histogram",
    "fig12_contenders",
    "fig13_scalability",
    "fig14_role_reversal",
    "fig15_location_skew",
    "fig16_skew_balancing",
    "sort_comparison",
    "complexity_model",
    "dmpsm_budget",
    "ablation_cdf_fan",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir");

    for exp in EXPERIMENTS {
        println!("\n===== {exp} =====\n");
        let path = bin_dir.join(exp);
        let status = Command::new(&path)
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {exp} at {}: {e}", path.display()));
        if !status.success() {
            eprintln!("experiment {exp} failed with {status}");
            std::process::exit(1);
        }
    }
    println!("\nAll experiments completed.");
}
