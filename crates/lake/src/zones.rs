//! Pond and zone architectures (§3.1) as organization policies.
//!
//! "The pond architecture partitions ingested data by their status and
//! usage … In contrast, the zone architecture separates the life cycle of
//! each dataset into different stages."

use lake_core::{Dataset, DatasetKind};

/// Lifecycle zones, in promotion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Zone {
    /// Loading / quality-checking area.
    Landing,
    /// Raw data as ingested.
    Raw,
    /// Cleaned and validated.
    Trusted,
    /// Integrated / transformed for analytics.
    Refined,
    /// Exposed for discovery and business analysis.
    Exploration,
}

impl Zone {
    /// All zones in promotion order.
    pub const ALL: [Zone; 5] =
        [Zone::Landing, Zone::Raw, Zone::Trusted, Zone::Refined, Zone::Exploration];

    /// The next zone in the lifecycle, if any.
    pub fn next(self) -> Option<Zone> {
        let i = Zone::ALL.iter().position(|z| *z == self)?;
        Zone::ALL.get(i + 1).copied()
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Zone::Landing => "landing",
            Zone::Raw => "raw",
            Zone::Trusted => "trusted",
            Zone::Refined => "refined",
            Zone::Exploration => "exploration",
        }
    }
}

/// Ponds, partitioning by data nature (Inmon's architecture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pond {
    /// Fresh, unclassified data.
    Raw,
    /// Machine/sensor-generated data (often reduced in volume).
    Analog,
    /// Application/business transaction data.
    Application,
    /// Unstructured text.
    Textual,
    /// Long-term secured data.
    Archival,
}

impl Pond {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Pond::Raw => "raw",
            Pond::Analog => "analog",
            Pond::Application => "application",
            Pond::Textual => "textual",
            Pond::Archival => "archival",
        }
    }

    /// The pond a dataset moves to *after* the raw pond, based on its
    /// nature (the "associated processes" of the pond architecture).
    pub fn classify(dataset: &Dataset) -> Pond {
        match dataset.kind() {
            // Logs / measurements read as analog device output.
            DatasetKind::Log => Pond::Analog,
            DatasetKind::Table | DatasetKind::Documents | DatasetKind::Graph => Pond::Application,
            DatasetKind::Text => Pond::Textual,
        }
    }
}

/// Which high-level organization philosophy a lake runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrganizationPolicy {
    /// Lifecycle zones.
    Zones,
    /// Data-nature ponds.
    Ponds,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lake_core::Table;

    #[test]
    fn zones_promote_in_order() {
        assert_eq!(Zone::Landing.next(), Some(Zone::Raw));
        assert_eq!(Zone::Refined.next(), Some(Zone::Exploration));
        assert_eq!(Zone::Exploration.next(), None);
        assert!(Zone::Landing < Zone::Trusted);
    }

    #[test]
    fn ponds_classify_by_nature() {
        assert_eq!(Pond::classify(&Dataset::Log(vec!["x".into()])), Pond::Analog);
        assert_eq!(Pond::classify(&Dataset::Table(Table::empty("t"))), Pond::Application);
        assert_eq!(Pond::classify(&Dataset::Text("hi".into())), Pond::Textual);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Zone::Raw.name(), "raw");
        assert_eq!(Pond::Archival.name(), "archival");
    }
}
