//! E9: the multi-tariff approach (§3.3) evaluated across consumer
//! tariff sensitivity — the experiment the paper could not run.

use flextract_eval::experiments::{tariff_study, ExperimentParams};

fn main() {
    let params = ExperimentParams {
        households: 15,
        days: 28,
        seed: 2013,
    };
    let study =
        tariff_study(&[0.0, 0.25, 0.5, 0.75, 1.0], params).expect("fixed experiment parameters");
    print!("{}", study.render());
    println!("\n(15 family households x 28 days under the overnight 22:00-06:00 low tariff)");
}
