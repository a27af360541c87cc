//! Regenerates **Table 2**: the number of findings per analysis method
//! (finding type) across the benchmark publications.
//!
//! ```text
//! cargo run -p synrd-bench --bin table2
//! ```
//!
//! It takes no flags: any argument exits with code 2.

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unknown flag '{arg}'");
        std::process::exit(2);
    }
    let counts = synrd::report::finding_type_counts();
    println!("Table 2: methods used in benchmark papers (finding types)\n");
    print!("{}", synrd::report::render_table2(&counts));
    println!("\nPaper reference counts: Descriptive 8, Between-Coeff 4, Sign 2,");
    println!("Causal (Var/Int) 1+1, Coeff Difference 19, Logistic 2x4,");
    println!("Mean Difference 24+26, Pearson 12, Spearman 1 (total 106).");
    println!("Our benchmark models 104 findings over the same taxonomy.");
}
