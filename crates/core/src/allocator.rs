//! Budget allocation across the day.
//!
//! The paper fixes one budget `K` per query. A deployment has a *daily*
//! budget and must decide when to spend it. [`plan_daily_budget`] splits
//! a day's budget across monitoring slots proportionally to the
//! network's expected volatility `Σ_i σ_i^t` in each slot: calm overnight
//! slots get little, rush hours get the bulk — the same
//! weak-periodicity-first principle OCS applies within a slot (Eq. 13),
//! lifted to the time axis.

use rtse_data::SlotOfDay;
use rtse_rtf::RtfModel;

/// Splits `total_budget` across `slots` proportionally to the model's
/// per-slot volatility mass `Σ_i σ_i^t`, with largest-remainder rounding
/// so the shares sum exactly to the total.
///
/// # Panics
/// Panics when `slots` is empty.
pub fn plan_daily_budget(model: &RtfModel, slots: &[SlotOfDay], total_budget: u32) -> Vec<u32> {
    assert!(!slots.is_empty(), "need at least one slot");
    let mass: Vec<f64> = slots.iter().map(|&t| model.slot(t).sigma.iter().sum::<f64>()).collect();
    let total_mass: f64 = mass.iter().sum();
    if total_mass <= 0.0 {
        // Degenerate: uniform split.
        let base = total_budget / slots.len() as u32;
        let mut out = vec![base; slots.len()];
        let mut rem = total_budget - base * slots.len() as u32;
        for v in out.iter_mut() {
            if rem == 0 {
                break;
            }
            *v += 1;
            rem -= 1;
        }
        return out;
    }
    // Largest-remainder apportionment.
    let exact: Vec<f64> = mass.iter().map(|m| total_budget as f64 * m / total_mass).collect();
    let mut out: Vec<u32> = exact.iter().map(|e| e.floor() as u32).collect();
    let assigned: u32 = out.iter().sum();
    let mut remainders: Vec<(usize, f64)> =
        exact.iter().enumerate().map(|(i, e)| (i, e - e.floor())).collect();
    remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for k in 0..(total_budget - assigned) as usize {
        out[remainders[k % remainders.len()].0] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtse_data::{SynthConfig, TrafficGenerator, SLOTS_PER_DAY};
    use rtse_graph::generators::grid;
    use rtse_rtf::moment_estimate;

    fn trained_model() -> (rtse_graph::Graph, RtfModel) {
        let graph = grid(3, 4);
        let ds = TrafficGenerator::new(
            &graph,
            SynthConfig { days: 15, incidents_per_day: 0.0, seed: 8, ..SynthConfig::default() },
        )
        .generate();
        let model = moment_estimate(&graph, &ds.history);
        (graph, model)
    }

    #[test]
    fn budget_sums_exactly_and_favors_rush_hour() {
        let (_g, model) = trained_model();
        let slots: Vec<SlotOfDay> = (0..SLOTS_PER_DAY as u16).step_by(12).map(SlotOfDay).collect();
        let total = 500u32;
        let plan = plan_daily_budget(&model, &slots, total);
        assert_eq!(plan.iter().sum::<u32>(), total);
        // The generator makes rush hours the most volatile: the 08:30-ish
        // slot should receive more than the 03:00-ish slot.
        let idx_of = |h: u32| slots.iter().position(|s| s.hour() == h).expect("hour sampled");
        assert!(
            plan[idx_of(8)] > plan[idx_of(3)],
            "rush {} vs night {}",
            plan[idx_of(8)],
            plan[idx_of(3)]
        );
    }

    #[test]
    fn single_slot_gets_everything() {
        let (_g, model) = trained_model();
        let plan = plan_daily_budget(&model, &[SlotOfDay(100)], 77);
        assert_eq!(plan, vec![77]);
    }

    #[test]
    fn zero_budget_all_zero() {
        let (_g, model) = trained_model();
        let slots = [SlotOfDay(0), SlotOfDay(100), SlotOfDay(200)];
        let plan = plan_daily_budget(&model, &slots, 0);
        assert_eq!(plan, vec![0, 0, 0]);
    }
}
