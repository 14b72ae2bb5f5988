//! Named scenario presets.
//!
//! Naming a generator configuration keeps its tuning in one place and
//! makes experiment writeups reproducible by name.

use crate::synth::SynthConfig;

/// A volatile city: paper-difficulty estimation (Per MAPE ~0.15–0.3).
/// Matches the experiment harness's semi-synthesized world.
pub fn volatile(days: usize, seed: u64) -> SynthConfig {
    SynthConfig {
        days,
        seed,
        incidents_per_day: 10.0,
        severity_range: (0.3, 0.55),
        weak_periodicity_fraction: 0.35,
        weak_periodicity_scale: 6.0,
        temporal_persistence: 0.9,
        diffusion_rounds: 2,
        diffusion_weight: 0.35,
        ..SynthConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::TrafficGenerator;
    use rtse_graph::generators::grid;
    use rtse_math::stats::population_std;

    /// Average day-to-day std across roads at a rush-hour slot.
    fn volatility_of(cfg: SynthConfig) -> f64 {
        let g = grid(3, 4);
        let ds = TrafficGenerator::new(&g, cfg).generate();
        let slot = crate::SlotOfDay::from_hm(8, 30);
        let mut acc = 0.0;
        for r in g.road_ids() {
            acc += population_std(&ds.history.samples(r, slot));
        }
        acc / g.num_roads() as f64
    }

    #[test]
    fn scenarios_order_by_volatility() {
        let std_v = volatility_of(SynthConfig { days: 10, seed: 3, ..SynthConfig::default() });
        let vol_v = volatility_of(volatile(10, 3));
        assert!(std_v < vol_v, "default {std_v} vs volatile {vol_v}");
    }
}
