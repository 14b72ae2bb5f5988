//! Edge configuration.

use rtse_check::InvariantViolation;
use rtse_data::SlotOfDay;
use rtse_obs::ObsHandle;
use std::time::Duration;

/// Most listener shards a config may ask for. Each shard is one OS
/// thread on the compute pool; beyond this the accept path is never the
/// bottleneck — the shared serving queue is.
pub const MAX_SHARDS: usize = 64;

/// Most roads one wire query may name. Also bounds the decoder's
/// per-frame allocation (see [`crate::frame::DecodeLimits`]).
pub const MAX_ROADS_PER_QUERY: u32 = 4096;

/// Slot-rollover prewarm: a background loop that builds the *next*
/// slot's correlation table (and warms its answer cache) shortly before
/// the slot boundary, so the first post-rollover query pays a warm
/// lookup instead of `|R|` Dijkstras stacked on a fresh GSP round.
#[derive(Debug, Clone)]
pub struct PrewarmConfig {
    /// Wall-clock length of one slot. The paper's slots are 5 minutes;
    /// benchmarks compress this to seconds to cross many boundaries per
    /// run (the rollover cliff is about crossing boundaries, not about
    /// how far apart they are).
    pub slot_len: Duration,
    /// How long before the boundary the warm starts. Must leave room for
    /// one Γ build plus one shared round at the deployment's scale.
    pub lead: Duration,
    /// Slot the clock reads at its epoch (the moment the edge starts).
    pub base_slot: SlotOfDay,
}

impl PrewarmConfig {
    /// Paper-faithful timing: 5-minute slots, warmed 30 s ahead,
    /// starting from slot 0.
    pub fn realtime() -> Self {
        Self {
            slot_len: Duration::from_secs(300),
            lead: Duration::from_secs(30),
            base_slot: SlotOfDay(0),
        }
    }
}

impl rtse_check::Validate for PrewarmConfig {
    fn validate(&self) -> Result<(), InvariantViolation> {
        rtse_check::ensure(!self.slot_len.is_zero(), "edge.prewarm_slot_len_positive", || {
            "prewarm slot_len is zero; every instant would be a rollover".into()
        })?;
        rtse_check::ensure(
            !self.lead.is_zero() && self.lead < self.slot_len,
            "edge.prewarm_lead_within_slot",
            || {
                format!(
                    "prewarm lead {:?} must be positive and shorter than the {:?} slot",
                    self.lead, self.slot_len
                )
            },
        )
    }
}

/// Knobs of one edge deployment.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Listen address. Port 0 binds an ephemeral port; the bound address
    /// is reported by [`crate::EdgeHandle::addr`].
    pub addr: String,
    /// Listener shard threads sharing the accept socket, in
    /// `1..=`[`MAX_SHARDS`].
    pub shards: usize,
    /// Most roads one query frame may name; larger frames are rejected
    /// by the decoder before the road list is materialized.
    pub max_roads_per_query: u32,
    /// Connections silent for longer than this are closed with a typed
    /// `GoAway(IdleTimeout)` frame.
    pub idle_timeout: Duration,
    /// Slot-rollover prewarm; `None` disables the background warmer
    /// (every boundary then pays the cold-build cliff).
    pub prewarm: Option<PrewarmConfig>,
    /// Observability handle the edge records into (`edge.*` stages).
    /// No-op by default; share a registry with the serving layer for one
    /// combined snapshot.
    pub obs: ObsHandle,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            shards: 1,
            max_roads_per_query: 64,
            idle_timeout: Duration::from_secs(30),
            prewarm: None,
            obs: ObsHandle::noop(),
        }
    }
}

impl rtse_check::Validate for EdgeConfig {
    fn validate(&self) -> Result<(), InvariantViolation> {
        rtse_check::ensure((1..=MAX_SHARDS).contains(&self.shards), "edge.shards_bounded", || {
            format!("{} listener shards outside 1..={MAX_SHARDS}", self.shards)
        })?;
        rtse_check::ensure(
            (1..=MAX_ROADS_PER_QUERY).contains(&self.max_roads_per_query),
            "edge.max_roads_in_range",
            || {
                format!(
                    "max_roads_per_query {} outside 1..={MAX_ROADS_PER_QUERY}",
                    self.max_roads_per_query
                )
            },
        )?;
        rtse_check::ensure(!self.idle_timeout.is_zero(), "edge.idle_timeout_positive", || {
            "idle_timeout is zero; every connection would be closed on arrival".into()
        })?;
        if let Some(prewarm) = &self.prewarm {
            prewarm.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtse_check::Validate;

    #[test]
    fn default_config_is_valid() {
        EdgeConfig::default().validate().expect("default must validate");
    }

    /// The default must not depend on the process environment, so that
    /// the shard count `validate` checks is the one `edge_serve` binds.
    #[test]
    fn default_shards_ignore_the_environment() {
        std::env::set_var("RTSE_EDGE_SHARDS", "65");
        let cfg = EdgeConfig::default();
        let validated = cfg.validate();
        std::env::remove_var("RTSE_EDGE_SHARDS");
        validated.expect("default must validate whatever the environment says");
        assert_eq!(cfg.shards, 1);
    }

    #[test]
    fn invalid_configs_name_their_invariant() {
        let too_many = EdgeConfig { shards: MAX_SHARDS + 1, ..Default::default() };
        assert_eq!(too_many.validate().expect_err("must fail").invariant, "edge.shards_bounded");

        let no_shards = EdgeConfig { shards: 0, ..Default::default() };
        assert_eq!(no_shards.validate().expect_err("must fail").invariant, "edge.shards_bounded");

        let no_roads = EdgeConfig { max_roads_per_query: 0, ..Default::default() };
        assert_eq!(
            no_roads.validate().expect_err("must fail").invariant,
            "edge.max_roads_in_range"
        );

        let instant_idle = EdgeConfig { idle_timeout: Duration::ZERO, ..Default::default() };
        assert_eq!(
            instant_idle.validate().expect_err("must fail").invariant,
            "edge.idle_timeout_positive"
        );

        let eager = EdgeConfig {
            prewarm: Some(PrewarmConfig {
                slot_len: Duration::from_secs(2),
                lead: Duration::from_secs(2),
                base_slot: SlotOfDay(0),
            }),
            ..Default::default()
        };
        assert_eq!(
            eager.validate().expect_err("must fail").invariant,
            "edge.prewarm_lead_within_slot"
        );
    }

    #[test]
    fn realtime_prewarm_is_paper_faithful() {
        let p = PrewarmConfig::realtime();
        p.validate().expect("must validate");
        assert_eq!(p.slot_len, Duration::from_secs(300));
    }
}
