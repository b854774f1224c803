//! The shared rejection of out-of-range detector configurations.
//!
//! Each detector configuration (`egi_core::EnsembleConfig`,
//! `egi_discord::DiscordConfig`) keeps its range rules in one
//! `validate` method returning [`ConfigError`]. The constructors panic
//! on it, as documented; checkpoint loaders and the `egi` CLI report it
//! instead.

use std::error::Error;
use std::fmt;

/// A configuration field outside its documented range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field, as named in the configuration struct.
    pub field: &'static str,
    /// The rule it breaks and the value given, e.g.
    /// `"must be at least 2, got 1"`.
    pub reason: String,
}

impl ConfigError {
    /// `Ok` when `holds`, else the error for `field`: it must be
    /// `rule`, and `found` was given.
    pub fn check(
        holds: bool,
        field: &'static str,
        rule: impl fmt::Display,
        found: impl fmt::Display,
    ) -> Result<(), Self> {
        if holds {
            Ok(())
        } else {
            Err(Self {
                field,
                reason: format!("must be {rule}, got {found}"),
            })
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.field, self.reason)
    }
}

impl Error for ConfigError {}
