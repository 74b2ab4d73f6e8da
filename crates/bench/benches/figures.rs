//! `cargo bench -p rocksteady-bench --bench figures [-- <name>...]`:
//! regenerates the named figures, or with no name all eight in paper
//! order. Exits non-zero if any shape check failed.

fn main() {
    // Cargo appends `--bench` to whatever follows `--`.
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|arg| arg != "--bench")
        .collect();
    std::process::exit(rocksteady_bench::figures::run(&names));
}
