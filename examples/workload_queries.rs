//! Workload-error evaluation in the style of Tao et al. (2021): how well do
//! the synthesizers answer random range/point query workloads over pairs?
//! This is the *proxy-task* evaluation the epistemic-parity paper argues is
//! not enough — included here so both methodologies can be compared on the
//! same synthetic data.
//!
//! ```text
//! cargo run --release --example workload_queries
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synrd_data::{BenchmarkDataset, Marginal};
use synrd_synth::{all_pairs, SynthKind};

fn main() {
    let data = BenchmarkDataset::Saw2018.generate(10_000, 9);
    let workload = all_pairs(data.domain());
    let eps = std::f64::consts::E;
    let mut rng = StdRng::seed_from_u64(17);

    // 60 random pair queries: total-variation error of the pair marginal.
    let queries: Vec<&Vec<usize>> = (0..60)
        .map(|_| &workload[rng.gen_range(0..workload.len())])
        .collect();

    println!(
        "random pair-marginal workload over {} ({} queries)\n",
        data.domain().size(),
        queries.len()
    );
    println!("{:<12} {:>16}", "synthesizer", "mean TV error");
    for kind in [
        SynthKind::Mst,
        SynthKind::Aim,
        SynthKind::PrivBayes,
        SynthKind::Gem,
    ] {
        let mut synth = kind.build();
        synth
            .fit(&data, kind.native_privacy(eps, data.n_rows()), 23)
            .expect("fit");
        let synthetic = synth.sample(data.n_rows(), 29).expect("sample");
        let mut total = 0.0;
        for q in &queries {
            let real_m = Marginal::count(&data, q).expect("marginal");
            let synth_m = Marginal::count(&synthetic, q).expect("marginal");
            total += 0.5 * real_m.l1_distance(&synth_m).expect("same shape");
        }
        println!("{:<12} {:>16.4}", kind.name(), total / queries.len() as f64);
    }
    println!("\nAIM and MST are workload-aware / marginal-based and should lead here,");
    println!("even where epistemic parity (fig3) tells a more nuanced story.");
}
