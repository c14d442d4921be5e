//! `smi-lint` binary: scan the workspace, report, gate CI.
//! All behaviour lives in the library so `smi-lab lint` shares it.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(smi_lint::run_cli(&args));
}
