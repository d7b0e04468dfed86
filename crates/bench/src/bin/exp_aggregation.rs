//! E8: aggregation + RES scheduling — the §6 claim that aggregated
//! flex-offers behave realistically even from the coarse peak-based
//! extraction.

use flextract_eval::experiments::{aggregation_study, ExperimentParams};

fn main() {
    let params = ExperimentParams {
        households: 50,
        days: 14,
        seed: 2013,
    };
    let study = aggregation_study(params).expect("fixed experiment parameters");
    print!("{}", study.render());
    println!("\n(50 households x 14 days, wind farm sized to the fleet's mean load)");
}
