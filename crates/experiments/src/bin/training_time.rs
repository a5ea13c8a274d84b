//! §V text — predictable training time: the benchmark budget bound vs
//! the actually consumed (simulated) benchmarking time, per dataset.
//! The paper's example: SuperMUC-NG (d8) is bounded by ~3 h and actually
//! took ~56 min.

use mpcp_benchmark::BenchConfig;
use mpcp_experiments::{fmt_duration, load_dataset, render_table, write_result_csv, Prepared};

fn main() {
    mpcp_experiments::print_provenance("training_time", None);
    let ids: Vec<String> = std::env::var("MPCP_DATASETS")
        .map(|s| s.split(',').map(|x| x.trim().to_string()).collect())
        .unwrap_or_else(|_| vec!["d8".to_string()]);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for id in &ids {
        let Prepared { spec, data: result, .. } = load_dataset(id);
        let bench = BenchConfig::paper_default(&spec.machine.name);
        let bound = result.budget_bound(&bench);
        rows.push(vec![
            spec.id.to_string(),
            spec.machine.name.clone(),
            result.records.len().to_string(),
            format!("{:.1} s", bench.budget.as_secs_f64()),
            fmt_duration(bound.as_secs_f64()),
            fmt_duration(result.total_bench.as_secs_f64()),
            format!(
                "{:.0}%",
                100.0 * result.total_bench.as_secs_f64() / bound.as_secs_f64()
            ),
        ]);
        csv.push(format!(
            "{},{},{},{},{:.1},{:.1}",
            spec.id,
            spec.machine.name,
            result.records.len(),
            bench.budget.as_secs_f64(),
            bound.as_secs_f64(),
            result.total_bench.as_secs_f64()
        ));
    }
    println!("Benchmark-time accounting (simulated wall time of the benchmarking step)");
    println!(
        "{}",
        render_table(
            &["dataset", "machine", "#cells", "budget/cell", "upper bound", "actual", "used"],
            &rows
        )
    );
    println!("(paper, d8 on SuperMUC-NG: bound ~3.2 h from 23184 x 0.5 s; actual ~56 min)");
    write_result_csv(
        "training_time.csv",
        "dataset,machine,cells,budget_per_cell_s,bound_s,actual_s",
        &csv,
    );
}
