//! E10: peak-threshold ablation, the design-choice study (README's
//! "Figure and experiment binaries").

use flextract_eval::experiments::{threshold_ablation, ExperimentParams};

fn main() {
    let params = ExperimentParams {
        households: 30,
        days: 28,
        seed: 2013,
    };
    let ablation = threshold_ablation(params).expect("fixed experiment parameters");
    print!("{}", ablation.render());
    println!("\n(30 households x 28 days; 'empty-days' = household-days where no peak survived the filter)");
}
