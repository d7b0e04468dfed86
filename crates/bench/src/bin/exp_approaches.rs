//! E6: all six extraction approaches compared on one fleet.

use flextract_eval::experiments::{approach_comparison, ExperimentParams};

fn main() {
    let params = ExperimentParams {
        households: 30,
        days: 28,
        seed: 2013,
    };
    let cmp = approach_comparison(params).expect("fixed experiment parameters");
    print!("{}", cmp.render());
    println!("\n(30 households x 28 days; dispersion 1.0 = uniformly spread starts — the random baseline's flaw)");
}
