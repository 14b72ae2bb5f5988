//! Per-road daily speed profiles.
//!
//! The periodic component of the synthetic traffic: each road has an
//! expected speed curve over the day (free-flow speed with morning/evening
//! rush-hour dips) and a *periodicity strength* controlling how tightly
//! daily realizations hug that curve. Roads with weak periodicity are
//! exactly the roads the paper's OCS prioritizes for crowdsourcing.

use crate::slot::SlotOfDay;
use rtse_graph::RoadClass;

/// Gaussian bump `exp(-(x - center)^2 / (2 width^2))`.
fn bump(x: f64, center: f64, width: f64) -> f64 {
    let d = (x - center) / width;
    (-0.5 * d * d).exp()
}

/// The deterministic daily pattern and noise intensity of one road.
#[derive(Debug, Clone, PartialEq)]
pub struct RoadProfile {
    /// Free-flow (uncongested) speed, km/h.
    pub free_flow_kmh: f64,
    /// Fractional speed drop at the morning rush peak (0..1).
    pub morning_dip: f64,
    /// Fractional speed drop at the evening rush peak (0..1).
    pub evening_dip: f64,
    /// Morning peak time in fractional hours.
    pub morning_peak_h: f64,
    /// Evening peak time in fractional hours.
    pub evening_peak_h: f64,
    /// Rush-hour width in hours.
    pub rush_width_h: f64,
    /// Standard deviation of day-to-day fluctuation, km/h. Small values =
    /// strong periodicity; large = weak periodicity.
    pub noise_std_kmh: f64,
}

impl RoadProfile {
    /// A canonical profile for a road class; `volatility_scale` multiplies
    /// the class's base noise level (the generator draws it per road).
    pub fn for_class(class: RoadClass, volatility_scale: f64) -> Self {
        let free_flow = class.free_flow_speed();
        let (m_dip, e_dip) = match class {
            RoadClass::Highway => (0.25, 0.30),
            RoadClass::Arterial => (0.45, 0.50),
            RoadClass::Secondary => (0.40, 0.45),
            RoadClass::Local => (0.30, 0.30),
        };
        Self {
            free_flow_kmh: free_flow,
            morning_dip: m_dip,
            evening_dip: e_dip,
            morning_peak_h: 8.5,
            evening_peak_h: 18.0,
            rush_width_h: 1.2,
            noise_std_kmh: 2.0 * class.volatility() * volatility_scale,
        }
    }

    /// Expected speed at a slot (the periodic mean the RTF's `μ_i^t` should
    /// recover).
    pub fn expected_speed(&self, slot: SlotOfDay) -> f64 {
        let h = slot.frac_hour();
        let congestion = self.morning_dip * bump(h, self.morning_peak_h, self.rush_width_h)
            + self.evening_dip * bump(h, self.evening_peak_h, self.rush_width_h);
        // Light night-time speed-up (empty roads).
        let night_boost = 0.05 * bump(h, 3.0, 2.5);
        self.free_flow_kmh * (1.0 - congestion + night_boost).max(0.1)
    }

    /// Noise standard deviation at a slot: fluctuations are larger around
    /// rush hours (congestion onset is what varies day to day).
    pub fn noise_std(&self, slot: SlotOfDay) -> f64 {
        let h = slot.frac_hour();
        let rush = bump(h, self.morning_peak_h, self.rush_width_h)
            + bump(h, self.evening_peak_h, self.rush_width_h);
        self.noise_std_kmh * (1.0 + 1.5 * rush)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rush_hour_is_slower_than_night() {
        let p = RoadProfile::for_class(RoadClass::Arterial, 1.0);
        let rush = p.expected_speed(SlotOfDay::from_hm(8, 30));
        let night = p.expected_speed(SlotOfDay::from_hm(3, 0));
        assert!(rush < night, "rush {rush} should be slower than night {night}");
        assert!(rush < p.free_flow_kmh);
    }

    #[test]
    fn speeds_always_positive() {
        for class in RoadClass::ALL {
            let p = RoadProfile::for_class(class, 3.0);
            for slot in SlotOfDay::all() {
                assert!(p.expected_speed(slot) > 0.0);
            }
        }
    }

    #[test]
    fn highway_faster_than_local_everywhere() {
        let hw = RoadProfile::for_class(RoadClass::Highway, 1.0);
        let local = RoadProfile::for_class(RoadClass::Local, 1.0);
        for slot in SlotOfDay::all() {
            assert!(hw.expected_speed(slot) > local.expected_speed(slot));
        }
    }

    #[test]
    fn noise_peaks_at_rush_hour() {
        let p = RoadProfile::for_class(RoadClass::Secondary, 1.0);
        let rush = p.noise_std(SlotOfDay::from_hm(8, 30));
        let calm = p.noise_std(SlotOfDay::from_hm(12, 0));
        assert!(rush > calm);
    }

    #[test]
    fn volatility_scale_scales_noise() {
        let base = RoadProfile::for_class(RoadClass::Secondary, 1.0);
        let double = RoadProfile::for_class(RoadClass::Secondary, 2.0);
        let slot = SlotOfDay::from_hm(10, 0);
        assert!((double.noise_std(slot) - 2.0 * base.noise_std(slot)).abs() < 1e-9);
    }
}
