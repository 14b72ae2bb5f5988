//! Evaluation metrics and experiment utilities (Section VII).
//!
//! The paper compares estimators on four axes:
//! * **MAPE** — mean absolute percentage error;
//! * **FER** — false-estimation rate: fraction of cases whose APE exceeds
//!   `φ = 0.2`;
//! * **DAPE** — the distribution of APE (histogram);
//! * **running time**.
//!
//! Plus Table III's 1-hop/2-hop coverage of the queried roads by the
//! selected crowdsourced roads. This crate implements all of them, along
//! with plain-text/CSV table rendering shared by the experiment binaries.

pub mod coverage;
pub mod dape;
pub mod geojson;
pub mod metrics;
mod quantile;
pub mod results;
pub mod table;
pub mod timing;

pub use coverage::k_hop_coverage;
pub use dape::dape_histogram;
pub use geojson::{to_geojson, ScalarLayer};
pub use metrics::{ape, ErrorReport, DEFAULT_FER_THRESHOLD};
pub use quantile::quantile;
pub use results::{results_dir_from_args, ResultsDir};
pub use table::Table;
pub use timing::{time_it, time_mean};
