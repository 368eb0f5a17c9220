//! # lake
//!
//! The facade crate: [`DataLake`] wires the storage tier, the ingestion
//! tier, the maintenance tier, and the exploration tier into the
//! architecture of the survey's Fig. 2, together with the surrounding
//! concerns the survey calls out — zone/pond organization (§3.1), users
//! and access control (§3.3), governance requests (§6.7), and the Table 1
//! registry mapping every surveyed system to its implementation here.
//!
//! ```
//! use lake::{DataLake, users::Role};
//!
//! let mut dl = DataLake::new();
//! dl.access.add_user("omar", Role::Operations);
//! let id = dl
//!     .ingest_file("omar", "sales.csv", b"customer_id,city\nc1,delft\nc2,paris\n")
//!     .unwrap();
//! let meta = dl.meta(id).unwrap();
//! assert_eq!(meta.format, "csv");
//! ```

pub mod governance;
pub mod registry;
pub mod users;
pub mod zones;

use governance::Governance;
use lake_core::ids::IdGen;
use lake_core::{Dataset, DatasetId, DatasetMeta, LakeError, Result, Table};
use lake_discovery::corpus::TableCorpus;
use lake_ingest::gemms::Gemms;
use lake_ingest::model::generic::GenericMetamodel;
use lake_ingest::model::graphmeta::EvolutionMetadata;
use lake_core::retry::SystemClock;
use lake_maintain::provenance::{ProvEvent, ProvenanceGraph};
use lake_obs::MetricsRegistry;
use lake_organize::goods::GoodsCatalog;
use lake_query::federated::{FederatedEngine, SourceBinding};
use lake_query::fulltext::{FullTextIndex, Hit};
use lake_store::{Polystore, StoreKind};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use users::{AccessControl, Operation};
use zones::{OrganizationPolicy, Pond, Zone};

/// The data lake: one polystore plus every functional tier.
pub struct DataLake {
    /// The storage tier.
    pub store: Polystore,
    /// User directory and permissions.
    pub access: AccessControl,
    /// Governance request queue.
    pub governance: Governance,
    /// The GEMMS metamodel filled at ingestion.
    pub metamodel: GenericMetamodel,
    /// The GOODS-style catalog.
    pub catalog: GoodsCatalog,
    /// High-level organization philosophy.
    pub policy: OrganizationPolicy,
    /// Evolution-oriented metadata: versions, links, forms, usage.
    pub evolution: EvolutionMetadata,
    /// Observability registry; every instrumented tier records here
    /// (`lake obs` in the CLI dumps it).
    pub metrics: Arc<MetricsRegistry>,
    fulltext: FullTextIndex,
    ids: IdGen,
    tick: AtomicU64,
    metas: BTreeMap<DatasetId, DatasetMeta>,
    zones: BTreeMap<DatasetId, Zone>,
    ponds: BTreeMap<DatasetId, Pond>,
    events: Vec<ProvEvent>,
}

impl Default for DataLake {
    fn default() -> Self {
        DataLake::new()
    }
}

impl DataLake {
    /// A fresh lake with zone organization.
    pub fn new() -> DataLake {
        DataLake::with_policy(OrganizationPolicy::Zones)
    }

    /// A fresh lake with the chosen organization policy.
    pub fn with_policy(policy: OrganizationPolicy) -> DataLake {
        DataLake {
            store: Polystore::new(),
            access: AccessControl::new(),
            governance: Governance::new(),
            metamodel: GenericMetamodel::new(),
            catalog: GoodsCatalog::new(),
            policy,
            evolution: EvolutionMetadata::new(),
            metrics: Arc::new(MetricsRegistry::new()),
            fulltext: FullTextIndex::new(),
            ids: IdGen::new(),
            tick: AtomicU64::new(0),
            metas: BTreeMap::new(),
            zones: BTreeMap::new(),
            ponds: BTreeMap::new(),
            events: Vec::new(),
        }
    }

    /// Advance and return the lake's logical clock.
    pub fn next_tick(&self) -> u64 {
        // lint: ordering — tick uniqueness and monotonicity rest on
        // fetch_add atomicity; readers never infer cross-variable order.
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Ingest one raw file: detect format, extract metadata (GEMMS),
    /// place the data (polystore), catalog it, assign its zone/pond, and
    /// record provenance. Requires the `Ingest` permission.
    pub fn ingest_file(&mut self, user: &str, file_name: &str, content: &[u8]) -> Result<DatasetId> {
        self.access.check(user, Operation::Ingest)?;
        let md = Gemms.extract(file_name, content)?;
        let id = self.ids.next_dataset();
        let tick = self.next_tick();
        let base_name = file_name
            .rsplit('/')
            .next()
            .unwrap_or(file_name)
            .split('.')
            .next()
            .unwrap_or(file_name)
            .to_string();
        // Storage locations must stay distinct across versions: a
        // re-ingested source gets a versioned name so the previous
        // dataset's placement keeps resolving.
        let version_prefix = format!("{base_name}__v");
        let collisions = self
            .metas
            .values()
            .filter(|m| m.name == base_name || m.name.starts_with(&version_prefix))
            .count();
        let name = if collisions == 0 {
            base_name
        } else {
            format!("{base_name}__v{}", collisions + 1)
        };

        // Versioning: re-ingesting the same source makes the new dataset
        // the next version of the lineage (data versioning + linkage,
        // §5.2.3's evolution-oriented features).
        if let Some(prev) = self
            .metas
            .values()
            .filter(|m| m.source == file_name)
            .map(|m| m.id)
            .max()
        {
            let v = self.evolution.add_version(prev, &format!("superseded by {id} at tick {tick}"));
            self.evolution.add_link(prev, id, 1.0);
            self.evolution.add_version(id, &format!("version {} of {file_name}", v + 1));
        } else {
            self.evolution.add_version(id, &format!("initial load of {file_name}"));
        }
        self.evolution.add_form(id, md.format.name(), file_name);

        // Storage tier.
        self.store.store(id, &name, md.dataset.clone())?;
        self.fulltext.index(id, &md.dataset);

        // Metadata tier.
        for (k, v) in &md.properties {
            self.metamodel.set_property(id, k, v);
        }
        self.metamodel.set_structure(id, md.structure.clone());
        self.catalog.crawl(file_name, id, &md.dataset);

        // Organization.
        match self.policy {
            OrganizationPolicy::Zones => {
                self.zones.insert(id, Zone::Landing);
            }
            OrganizationPolicy::Ponds => {
                self.ponds.insert(id, Pond::classify(&md.dataset));
            }
        }

        // Descriptive metadata + provenance.
        let mut meta = DatasetMeta::new(id, name.clone(), md.format.name())
            .with_source(file_name);
        meta.ingested_at = tick;
        self.metas.insert(id, meta);
        self.events.push(ProvEvent {
            tick,
            engine: "lake".into(),
            activity: format!("ingest:{file_name}"),
            user: Some(user.to_string()),
            inputs: vec![file_name.to_string()],
            outputs: vec![name],
        });
        self.metrics.counter("lake_lake_ingest_files_total").inc();
        self.metrics
            .counter("lake_lake_ingest_records_total")
            .add(md.dataset.record_count() as u64);
        Ok(id)
    }

    /// Ingest an already-parsed table (programmatic sources).
    pub fn ingest_table(&mut self, user: &str, table: Table) -> Result<DatasetId> {
        let csv = lake_formats::csv::write_table(&table, ',');
        self.ingest_file(user, &format!("{}.csv", table.name), csv.as_bytes())
    }

    /// Descriptive metadata of a dataset.
    pub fn meta(&self, id: DatasetId) -> Result<&DatasetMeta> {
        self.metas.get(&id).ok_or_else(|| LakeError::not_found(id))
    }

    /// Retrieve a dataset's raw content (requires `ReadData`).
    pub fn dataset(&self, user: &str, id: DatasetId) -> Result<Dataset> {
        self.access.check(user, Operation::ReadData)?;
        self.store.retrieve(id)
    }

    /// All dataset ids, in ingestion order.
    pub fn dataset_ids(&self) -> Vec<DatasetId> {
        self.metas.keys().copied().collect()
    }

    /// The zone of a dataset (zone policy only).
    pub fn zone_of(&self, id: DatasetId) -> Option<Zone> {
        self.zones.get(&id).copied()
    }

    /// The pond of a dataset (pond policy only).
    pub fn pond_of(&self, id: DatasetId) -> Option<Pond> {
        self.ponds.get(&id).copied()
    }

    /// Promote a dataset to the next lifecycle zone (requires `Promote`).
    pub fn promote(&mut self, user: &str, id: DatasetId) -> Result<Zone> {
        self.access.check(user, Operation::Promote)?;
        let zone = self
            .zones
            .get_mut(&id)
            .ok_or_else(|| LakeError::not_found(id))?;
        let next = zone
            .next()
            .ok_or_else(|| LakeError::invalid(format!("{id} already in {}", zone.name())))?;
        *zone = next;
        let tick = self.next_tick();
        self.events.push(ProvEvent {
            tick,
            engine: "lake".into(),
            activity: format!("promote:{}", next.name()),
            user: Some(user.to_string()),
            inputs: vec![],
            outputs: vec![self.metas[&id].name.clone()],
        });
        Ok(next)
    }

    /// Build the discovery corpus over every tabular dataset currently in
    /// the lake. Returns the corpus plus the dataset id per corpus table.
    pub fn corpus(&self) -> (TableCorpus, Vec<DatasetId>) {
        let mut tables = Vec::new();
        let mut ids = Vec::new();
        for (&id, _) in &self.metas {
            if let Ok(Dataset::Table(t)) = self.store.retrieve(id) {
                tables.push(t);
                ids.push(id);
            }
        }
        (TableCorpus::new(tables), ids)
    }

    /// A federated engine with every relational table registered as its
    /// own mediated table (identity mappings); callers add richer
    /// mediations on top. Executions record into [`DataLake::metrics`]
    /// and run in *degraded* mode by default: a failing source is
    /// skipped, retried under the default policy, and reported in
    /// `ExecStats::completeness` instead of failing the whole query.
    /// Chain [`FederatedEngine::with_degradation`] with
    /// [`lake_query::DegradationConfig::strict`] to restore fail-fast.
    pub fn federated(&self) -> FederatedEngine<'_> {
        let mut fe = FederatedEngine::new(&self.store);
        for name in self.store.relational.table_names() {
            if let Ok(t) = self.store.relational.get_table(&name) {
                let columns: BTreeMap<String, String> = t
                    .columns()
                    .iter()
                    .map(|c| (c.name.clone(), c.name.clone()))
                    .collect();
                fe.register(
                    &name,
                    vec![SourceBinding { store: StoreKind::Relational, location: name.clone(), columns }],
                );
            }
        }
        fe.with_obs(&self.metrics, Arc::new(SystemClock))
            .with_degradation(lake_query::DegradationConfig::degraded())
    }

    /// The browse card for a dataset (Constance's incremental exploration,
    /// §7.2: description, statistics, schema; requires `ReadMetadata`).
    pub fn describe_dataset(
        &self,
        user: &str,
        id: DatasetId,
    ) -> Result<lake_query::browse::DatasetSummary> {
        self.access.check(user, Operation::ReadMetadata)?;
        Ok(lake_query::browse::summarize(&self.store.retrieve(id)?))
    }

    /// Full-text search across every ingested dataset (CoreDB-style
    /// unified search; requires `Query`).
    pub fn search(&mut self, user: &str, query: &str, k: usize) -> Result<Vec<Hit>> {
        self.access.check(user, Operation::Query)?;
        Ok(self.fulltext.search(query, k))
    }

    /// Quality-gated promotion: entering the `Trusted` zone requires a
    /// clean CLAMS report (no constraint violations) for tabular data —
    /// the zone architecture's "checking data quality" stage made
    /// executable.
    pub fn promote_checked(&mut self, user: &str, id: DatasetId) -> Result<Zone> {
        let current = self.zones.get(&id).copied().ok_or_else(|| LakeError::not_found(id))?;
        if current.next() == Some(Zone::Trusted) {
            if let Ok(Dataset::Table(t)) = self.store.retrieve(id) {
                let report = lake_maintain::clean::clams::analyze(&t, 0.85);
                if !report.review_queue.is_empty() {
                    return Err(LakeError::invalid(format!(
                        "{id} blocked from trusted zone: {} suspect cells await review",
                        report.review_queue.len()
                    )));
                }
            }
        }
        self.promote(user, id)
    }

    /// Record an externally produced provenance event.
    pub fn record_event(&mut self, event: ProvEvent) {
        self.events.push(event);
    }

    /// The lake's provenance graph.
    pub fn provenance(&self) -> ProvenanceGraph {
        ProvenanceGraph::from_events(&self.events)
    }

    /// All recorded provenance events.
    pub fn events(&self) -> &[ProvEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use users::Role;

    fn lake_with_ops() -> DataLake {
        let mut dl = DataLake::new();
        dl.access.add_user("omar", Role::Operations);
        dl.access.add_user("ada", Role::Scientist);
        dl
    }

    #[test]
    fn ingest_routes_catalogs_and_zones() {
        let mut dl = lake_with_ops();
        let id = dl
            .ingest_file("omar", "raw/sales.csv", b"customer_id,city\nc1,delft\n")
            .unwrap();
        assert_eq!(dl.meta(id).unwrap().format, "csv");
        assert_eq!(dl.zone_of(id), Some(Zone::Landing));
        // Catalog crawled.
        assert!(dl.catalog.entry("raw/sales.csv").is_some());
        // Metamodel filled.
        assert!(dl.metamodel.entry(id).unwrap().structure.is_some());
        // Data retrievable by permitted users.
        let d = dl.dataset("ada", id).unwrap();
        assert_eq!(d.record_count(), 1);
    }

    #[test]
    fn permissions_gate_operations() {
        let mut dl = lake_with_ops();
        assert!(dl.ingest_file("ada", "x.csv", b"a\n1\n").is_err());
        let id = dl.ingest_file("omar", "x.csv", b"a\n1\n").unwrap();
        assert!(dl.dataset("ghost", id).is_err());
        assert!(dl.promote("ada", id).is_err());
        assert_eq!(dl.promote("omar", id).unwrap(), Zone::Raw);
    }

    #[test]
    fn zones_promote_until_exhausted() {
        let mut dl = lake_with_ops();
        let id = dl.ingest_file("omar", "x.csv", b"a\n1\n").unwrap();
        for expected in [Zone::Raw, Zone::Trusted, Zone::Refined, Zone::Exploration] {
            assert_eq!(dl.promote("omar", id).unwrap(), expected);
        }
        assert!(dl.promote("omar", id).is_err());
    }

    #[test]
    fn pond_policy_classifies_by_nature() {
        let mut dl = DataLake::with_policy(OrganizationPolicy::Ponds);
        dl.access.add_user("omar", Role::Operations);
        let logs = dl
            .ingest_file("omar", "device.log", b"2024 INFO a\n2024 WARN b\n")
            .unwrap();
        let tab = dl.ingest_file("omar", "t.csv", b"a,b\n1,2\n").unwrap();
        assert_eq!(dl.pond_of(logs), Some(Pond::Analog));
        assert_eq!(dl.pond_of(tab), Some(Pond::Application));
        assert_eq!(dl.zone_of(tab), None);
    }

    #[test]
    fn heterogeneous_ingestion_places_by_format() {
        let mut dl = lake_with_ops();
        dl.ingest_file("omar", "a.csv", b"x\n1\n").unwrap();
        dl.ingest_file("omar", "b.json", br#"{"k": 1}"#).unwrap();
        dl.ingest_file("omar", "c.log", b"2024 boot ok\n").unwrap();
        dl.ingest_file("omar", "d.txt", b"hello world, plain prose here").unwrap();
        let summary = dl.store.placement_summary();
        assert_eq!(summary["relational"], 1);
        assert_eq!(summary["document"], 1);
        assert_eq!(summary["file"], 2);
    }

    #[test]
    fn corpus_covers_tabular_datasets() {
        let mut dl = lake_with_ops();
        dl.ingest_file("omar", "a.csv", b"x,y\n1,2\n").unwrap();
        dl.ingest_file("omar", "b.csv", b"x,z\n1,3\n").unwrap();
        dl.ingest_file("omar", "c.json", br#"{"no": "table"}"#).unwrap();
        let (corpus, ids) = dl.corpus();
        assert_eq!(corpus.len(), 2);
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn federated_engine_answers_over_ingested_tables() {
        let mut dl = lake_with_ops();
        dl.ingest_file("omar", "orders.csv", b"cust,total\nc1,10\nc2,90\n").unwrap();
        let fe = dl.federated();
        let q = lake_query::parse_query("select cust from orders where total > 50").unwrap();
        let (t, _) = fe.execute(&q, true).unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn provenance_records_ingest_and_promotion() {
        let mut dl = lake_with_ops();
        let id = dl.ingest_file("omar", "raw/x.csv", b"a\n1\n").unwrap();
        dl.promote("omar", id).unwrap();
        let pg = dl.provenance();
        let touches = pg.who_touched("x");
        assert!(!touches.is_empty());
        assert!(touches.iter().any(|(u, _)| u == "omar"));
        assert_eq!(dl.events().len(), 2);
    }

    #[test]
    fn fulltext_search_spans_the_lake() {
        let mut dl = lake_with_ops();
        dl.ingest_file("omar", "a.csv", b"city\ndelft\nparis\n").unwrap();
        dl.ingest_file("omar", "notes.txt", b"meeting notes about the delft office")
            .unwrap();
        let hits = dl.search("ada", "delft", 5).unwrap();
        assert_eq!(hits.len(), 2);
        // Permission: unknown users cannot search.
        assert!(dl.search("mallory", "delft", 5).is_err());
    }

    #[test]
    fn checked_promotion_blocks_dirty_data() {
        let mut dl = lake_with_ops();
        // city→country violated in one row; type anomaly in pop.
        let dirty = dl
            .ingest_file(
                "omar",
                "dirty.csv",
                b"city,country\ndelft,nl\ndelft,nl\ndelft,nl\nparis,fr\nparis,fr\nparis,fr\nparis,fr\nparis,xx\n",
            )
            .unwrap();
        let clean = dl
            .ingest_file("omar", "clean.csv", b"a,b\n1,x\n2,y\n")
            .unwrap();
        // landing → raw is ungated.
        dl.promote_checked("omar", dirty).unwrap();
        dl.promote_checked("omar", clean).unwrap();
        // raw → trusted: dirty blocked, clean passes.
        assert!(dl.promote_checked("omar", dirty).is_err());
        assert_eq!(dl.promote_checked("omar", clean).unwrap(), Zone::Trusted);
        assert_eq!(dl.zone_of(dirty), Some(Zone::Raw));
    }

    #[test]
    fn reingestion_versions_the_lineage() {
        let mut dl = lake_with_ops();
        let v1 = dl.ingest_file("omar", "raw/sales.csv", b"a\n1\n").unwrap();
        let v2 = dl.ingest_file("omar", "raw/sales.csv", b"a\n1\n2\n").unwrap();
        assert_ne!(v1, v2);
        // Both versions remain independently retrievable.
        assert_eq!(dl.dataset("omar", v1).unwrap().record_count(), 1);
        assert_eq!(dl.dataset("omar", v2).unwrap().record_count(), 2);
        // Lineage recorded.
        assert_eq!(dl.evolution.versions_of(v1).len(), 2); // initial + superseded
        assert_eq!(dl.evolution.links_of(v2), vec![(v1, 1.0)]);
        assert!(!dl.evolution.forms_of(v2).is_empty());
        // Names stay distinct in storage.
        assert_ne!(dl.meta(v1).unwrap().name, dl.meta(v2).unwrap().name);
    }

    #[test]
    fn registry_observes_ingest_and_query() {
        let mut dl = lake_with_ops();
        dl.ingest_file("omar", "orders.csv", b"cust,total\nc1,10\nc2,90\n").unwrap();
        let fe = dl.federated();
        let q = lake_query::parse_query("select cust from orders").unwrap();
        fe.execute(&q, true).unwrap();
        drop(fe);
        let snap = dl.metrics.snapshot();
        assert_eq!(snap.counter_value("lake_lake_ingest_files_total"), 1);
        assert_eq!(snap.counter_value("lake_lake_ingest_records_total"), 2);
        assert_eq!(snap.counter_value("lake_query_execute_total"), 1);
        assert_eq!(snap.counter_value("lake_query_rows_moved_total"), 2);
        // The Prometheus dump the CLI `obs` command prints is non-empty.
        let text = lake_obs::export::prometheus_text(&snap);
        assert!(text.contains("lake_lake_ingest_files_total 1"));
        assert!(text.contains("lake_query_source_seconds_bucket"));
    }

    #[test]
    fn ingest_table_roundtrip() {
        use lake_core::Value;
        let mut dl = lake_with_ops();
        let t = Table::from_rows("prog", &["a"], vec![vec![Value::Int(7)]]).unwrap();
        let id = dl.ingest_table("omar", t).unwrap();
        let d = dl.dataset("omar", id).unwrap();
        assert_eq!(d.as_table().unwrap().column("a").unwrap().values[0], Value::Int(7));
    }
}
