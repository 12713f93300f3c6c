//! Regenerates the paper's evaluation tables and figures.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin tables            # everything
//! cargo run --release --bin tables -- table7  # a single experiment
//! ```

use fab::tables::{render_all, render_experiment, Experiment};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "all") {
        print!("{}", render_all());
        return;
    }
    for arg in &args {
        match Experiment::parse(arg) {
            Some(experiment) => print!("{}", render_experiment(experiment)),
            None => {
                eprintln!(
                    "unknown experiment '{arg}'; expected one of table2..table8, figure1, figure2, leveled, all"
                );
                std::process::exit(1);
            }
        }
    }
}
