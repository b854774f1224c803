//! Synthetic time series generators.
//!
//! The paper evaluates on data we cannot redistribute (UCR archive
//! instances, REFIT appliance traces, physionet ECG/EEG). Each generator
//! here produces a synthetic stand-in that preserves the property the
//! algorithms actually observe: a repetitive "normal" structure in which a
//! structurally different subsequence is embedded. Each generator
//! module's docs give its dataset's rationale (e.g. [`ucr`], [`power`]).
//!
//! All generators take an explicit `&mut impl Rng` so corpora are
//! reproducible from a seed.

pub mod ecg;
pub mod eeg;
pub mod noise;
pub mod periodic;
pub mod power;
pub mod ucr;
pub mod walk;

pub use ecg::{ecg_beat, ecg_series, EcgParams};
pub use eeg::eeg_series;
pub use noise::{gaussian, white_noise};
pub use periodic::{sine_series, SineSpec};
pub use power::{dishwasher_series, fridge_freezer_series, DutyCycle, PowerProfile};
pub use ucr::UcrFamily;
pub use walk::random_walk;
