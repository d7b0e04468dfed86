//! E5: flexible-share sweep over the MIRACLE 0.1-6.5 % range (§1 ref \[7\]).

use flextract_eval::experiments::{share_sweep, ExperimentParams};

fn main() {
    let params = ExperimentParams {
        households: 30,
        days: 28,
        seed: 2013,
    };
    let sweep = share_sweep(&[0.001, 0.005, 0.01, 0.02, 0.05, 0.065], params)
        .expect("fixed experiment parameters");
    print!("{}", sweep.render());
    println!("\n(30 households x 28 days; 'achieved' is extracted energy / total consumption)");
}
