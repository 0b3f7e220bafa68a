//! Fig. 7 — performance comparison of all schemes.
//!
//! Prints per-workload speedups over the no-NM baseline for rand / hma /
//! cam / camp / pom / silcfm, plus the geometric mean, as in the paper's
//! Fig. 7 (SILC-FM best overall; CAMEO the best prior hardware scheme), and
//! SILC-FM's margin over whichever prior scheme measured best.

use silcfm_bench::{baselines, best_prior, run_matrix, workload_labels, HarnessOpts};
use silcfm_sim::{format_table, Row, SchemeKind};
use silcfm_trace::profiles;
use silcfm_types::stats::geometric_mean;

fn main() {
    let opts = HarnessOpts::from_args();
    let params = opts.params();
    let kinds = SchemeKind::fig7_lineup();
    let base = baselines(&params);

    // One parallel grid covers every (workload, scheme) cell;
    // speedups[w][k] for workload w, scheme k.
    let results = run_matrix(&kinds, &params);
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); profiles::all().len()];
    let mut access_rates: Vec<Vec<f64>> = vec![Vec::new(); profiles::all().len()];
    for (w, (row, b)) in results.iter().zip(&base).enumerate() {
        for r in row {
            speedups[w].push(r.speedup_over(b));
            access_rates[w].push(r.access_rate);
        }
    }

    let columns: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
    let mut rows: Vec<Row> = workload_labels()
        .into_iter()
        .zip(speedups.iter().chain([&Vec::new()]))
        .take(profiles::all().len())
        .map(|(label, values)| Row::new(label, values.clone()))
        .collect();
    let gmeans: Vec<f64> = (0..kinds.len())
        .map(|k| geometric_mean(&speedups.iter().map(|w| w[k]).collect::<Vec<_>>()))
        .collect();
    rows.push(Row::new("gmean", gmeans.clone()));
    println!(
        "{}",
        format_table(
            &format!("Fig. 7: speedup over no-NM baseline ({} mode)", opts.mode()),
            &columns,
            &rows,
            3
        )
    );

    let ar_rows: Vec<Row> = workload_labels()
        .into_iter()
        .take(profiles::all().len())
        .enumerate()
        .map(|(w, label)| Row::new(label, access_rates[w].clone()))
        .collect();
    println!(
        "{}",
        format_table(
            "Fig. 7 (companion): access rate (Eq. 1)",
            &columns,
            &ar_rows,
            3
        )
    );

    let (prior_idx, prior) = best_prior(&kinds, &gmeans).expect("prior schemes in lineup");
    let silc_idx = kinds
        .iter()
        .position(|k| k.label() == "silcfm")
        .expect("silcfm in lineup");
    println!(
        "SILC-FM vs best prior hardware scheme ({prior}): {:+.1}% (paper: +36%)",
        (gmeans[silc_idx] / gmeans[prior_idx] - 1.0) * 100.0
    );
}
