//! Table 1: accuracy lower bound vs actual accuracy when interchanging
//! whole models, across validation dataset sizes, at the paper's 20 draws
//! per size. The experiment is [`sommelier_bench::table1`].
//!
//! ```sh
//! cargo run --release -p sommelier-bench --bin table1_bounds
//! ```

use sommelier_bench::table1::{cells, MODELS, SIZES};
use sommelier_bench::{print_table, write_json};

fn main() {
    let cells = cells(20);
    let rows: Vec<Vec<String>> = SIZES
        .iter()
        .zip(cells.chunks(MODELS.len()))
        .map(|(n, row)| {
            let mut out = vec![format!("{n}")];
            out.extend(row.iter().map(|c| {
                format!(
                    "{:.0} / {:.0} / {:.0}",
                    c.bound * 100.0,
                    c.min_actual * 100.0,
                    c.avg_actual * 100.0
                )
            }));
            out
        })
        .collect();

    print_table(
        "Table 1: accuracy lower bound vs actual (%), cell = bound/min/avg",
        &["Dataset Size", "inceptionish", "vgg19ish", "mobilenetish"],
        &rows,
    );

    let all_safe = cells.iter().all(|c| c.safe);
    println!("\nall bounds safe (bound <= min actual): {all_safe}");
    // The bound must close in on the actual accuracy as n grows.
    for (name, _) in &MODELS {
        let gap = |n: usize| {
            let c = cells
                .iter()
                .find(|c| c.model == *name && c.dataset_size == n)
                .expect("cell exists");
            c.avg_actual - c.bound
        };
        println!(
            "{name}: bound gap at n=100 → 1k → 10k: {:.1}% → {:.1}% → {:.1}%",
            gap(100) * 100.0,
            gap(1_000) * 100.0,
            gap(10_000) * 100.0
        );
    }

    write_json("table1_bounds", &cells);
}
