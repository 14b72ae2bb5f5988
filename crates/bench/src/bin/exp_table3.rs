//! Table III — 1-hop and 2-hop coverage of the queried roads by the
//! crowdsourced roads chosen by OBJ / Rand / Hybrid, per budget.
//!
//! Expected shape (paper): Hybrid > OBJ > Rand at every budget, both
//! coverages growing with K.
//!
//! ```sh
//! cargo run --release -p rtse-bench --bin exp_table3 [--quick]
//! ```

use rtse_bench::{scale, semi_syn_world, BUDGETS_SEMI_SYN, THETA_TUNED};
use rtse_data::SlotOfDay;
use rtse_eval::{k_hop_coverage, results_dir_from_args, Table};
use rtse_ocs::{hybrid_greedy, objective_greedy, random_select, OcsInstance};
use rtse_rtf::{CorrelationTable, PathCorrelation};

fn main() {
    let (roads, days) = scale();
    let world = semi_syn_world(roads, days, 2018);
    let slot = SlotOfDay::from_hm(8, 30);
    let corr =
        CorrelationTable::build(&world.graph, &world.model, slot, PathCorrelation::MaxProduct);
    let params = world.model.slot(slot);
    let queried = &world.queried_51;

    let mut t = Table::new(
        "Table III — 1-hop / 2-hop coverage of the queried roads",
        &["selector", "K=30", "K=60", "K=90", "K=120", "K=150"],
    );
    // coverage[b][s]: (1-hop, 2-hop) coverage of selector `s` at budget `b`.
    let mut coverage: Vec<[(usize, usize); 3]> = Vec::new();
    for &budget in &BUDGETS_SEMI_SYN {
        let inst = OcsInstance {
            sigma: &params.sigma,
            corr: &corr,
            queried,
            candidates: &world.all_roads,
            costs: &world.costs_c1,
            budget,
            theta: THETA_TUNED,
        };
        let selections = [objective_greedy(&inst), random_select(&inst, 7), hybrid_greedy(&inst)];
        coverage.push(selections.map(|sel| {
            let c1 = k_hop_coverage(&world.graph, queried, &sel.roads, 1);
            let c2 = k_hop_coverage(&world.graph, queried, &sel.roads, 2);
            (c1, c2)
        }));
    }
    for (s, name) in SELECTORS.iter().enumerate() {
        let mut row = vec![name.to_string()];
        row.extend(coverage.iter().map(|at_budget| {
            let (c1, c2) = at_budget[s];
            format!("{c1} / {c2}")
        }));
        t.push_row(row);
    }
    println!("{}", t.render());
    if let Some(dir) = results_dir_from_args("table3") {
        match dir.write_table("coverage", &t) {
            Ok(path) => println!("(csv written to {})", path.display()),
            Err(e) => eprintln!("warning: csv write failed: {e}"),
        }
    }

    // The paper's two shape claims, evaluated on the table above. Each
    // lists the budgets where it fails, with the selectors responsible.
    let mut falls = Vec::new();
    let mut misordered = Vec::new();
    for (b, &budget) in BUDGETS_SEMI_SYN.iter().enumerate() {
        if b > 0 {
            let fell: Vec<&str> = SELECTORS
                .iter()
                .enumerate()
                .filter(|&(s, _)| !covers_at_least(coverage[b][s], coverage[b - 1][s]))
                .map(|(_, name)| *name)
                .collect();
            if !fell.is_empty() {
                falls.push(format!("K={budget} ({} fell)", fell.join(", ")));
            }
        }
        let [obj, rand, hybrid] = coverage[b];
        let mut broken = Vec::new();
        if !covers_at_least(hybrid, obj) {
            broken.push("Hybrid < OBJ");
        }
        if !covers_at_least(obj, rand) {
            broken.push("OBJ < Rand");
        }
        if !broken.is_empty() {
            misordered.push(format!("K={budget} ({})", broken.join(", ")));
        }
    }
    println!("Shape check (paper Table III):");
    println!("  coverage grows with K: {}", verdict(&falls));
    println!("  Hybrid >= OBJ >= Rand: {}", verdict(&misordered));
}

const SELECTORS: [&str; 3] = ["OBJ", "Rand", "Hybrid"];

/// Whether coverage `a` is at least `b` at both hop counts.
fn covers_at_least(a: (usize, usize), b: (usize, usize)) -> bool {
    a.0 >= b.0 && a.1 >= b.1
}

fn verdict(failures: &[String]) -> String {
    if failures.is_empty() {
        "holds at every budget".to_string()
    } else {
        format!("fails at {}", failures.join("; "))
    }
}
