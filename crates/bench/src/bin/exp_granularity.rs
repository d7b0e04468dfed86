//! E7: disaggregation accuracy vs series granularity (the paper's
//! closing caveat: 15-min data is insufficient for appliance-level
//! extraction).

use flextract_eval::experiments::{granularity, ExperimentParams};

fn main() {
    let params = ExperimentParams {
        households: 20,
        days: 28,
        seed: 2013,
    };
    let study = granularity(params).expect("fixed experiment parameters");
    print!("{}", study.render());
    println!("\n(20 households x 28 days; matched = truth activations with a same-appliance detection within ±15 min)");
}
