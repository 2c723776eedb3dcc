//! Differential analysis (paper §4.1): the Table 4 grid, age-group
//! comparisons, consent-state comparisons, and platform differences.

use crate::pipeline::ObservedService;
use diffaudit_blocklist::DestinationClass;
use diffaudit_ontology::Level2;
use diffaudit_services::{CellPresence, FlowAction, Platform, ServiceSpec, TraceCategory};
use std::collections::BTreeSet;

/// One grid cell address: `(trace category, data group, flow action)`.
pub type CellRef = (TraceCategory, Level2, FlowAction);

/// The observed Table 4 grid for one service.
#[derive(Debug, Clone)]
pub struct ObservedGrid {
    cells: Vec<(TraceCategory, Level2, FlowAction, CellPresence)>,
}

impl ObservedGrid {
    /// Build from an observed service: a cell's presence is derived from
    /// which platforms exhibited at least one matching flow (desktop counts
    /// toward web, as in the paper's merged columns).
    pub fn build(service: &ObservedService) -> ObservedGrid {
        let mut cells = Vec::new();
        for category in TraceCategory::ALL {
            let web = merged_web_cells(service, category);
            let mobile = service
                .flows_on(category, Platform::Mobile)
                .group_class_set();
            for group in Level2::TABLE4_ROWS {
                for action in FlowAction::ALL {
                    let key = (group, action.destination_class());
                    let presence = match (web.contains(&key), mobile.contains(&key)) {
                        (true, true) => CellPresence::Both,
                        (true, false) => CellPresence::WebOnly,
                        (false, true) => CellPresence::MobileOnly,
                        (false, false) => CellPresence::Neither,
                    };
                    cells.push((category, group, action, presence));
                }
            }
        }
        ObservedGrid { cells }
    }

    /// Presence of one cell.
    pub fn presence(
        &self,
        category: TraceCategory,
        group: Level2,
        action: FlowAction,
    ) -> CellPresence {
        self.cells
            .iter()
            .find(|(c, g, a, _)| *c == category && *g == group && *a == action)
            .map(|(_, _, _, p)| *p)
            .unwrap_or(CellPresence::Neither)
    }

    /// All cells.
    pub fn cells(&self) -> &[(TraceCategory, Level2, FlowAction, CellPresence)] {
        &self.cells
    }

    /// Compare against a spec's encoded ground truth at *category level*
    /// (cell active vs inactive, ignoring the platform symbol). Returns
    /// `(missing, spurious)` cell lists.
    pub fn compare_activity(&self, spec: &ServiceSpec) -> (Vec<CellRef>, Vec<CellRef>) {
        let mut missing = Vec::new();
        let mut spurious = Vec::new();
        for &(category, group, action, observed) in &self.cells {
            let expected = spec.expected_presence(category, group, action);
            match (expected.any(), observed.any()) {
                (true, false) => missing.push((category, group, action)),
                (false, true) => spurious.push((category, group, action)),
                _ => {}
            }
        }
        (missing, spurious)
    }

    /// Compare against a spec including platform symbols. Returns cells
    /// whose presence differs.
    pub fn compare_exact(
        &self,
        spec: &ServiceSpec,
    ) -> Vec<(
        TraceCategory,
        Level2,
        FlowAction,
        CellPresence,
        CellPresence,
    )> {
        self.cells
            .iter()
            .filter_map(|&(category, group, action, observed)| {
                let expected = spec.expected_presence(category, group, action);
                (expected != observed).then_some((category, group, action, expected, observed))
            })
            .collect()
    }
}

/// Web-side cells: web plus desktop platforms merged.
fn merged_web_cells(
    service: &ObservedService,
    category: TraceCategory,
) -> BTreeSet<(Level2, DestinationClass)> {
    let mut set = service.flows_on(category, Platform::Web).group_class_set();
    set.extend(
        service
            .flows_on(category, Platform::Desktop)
            .group_class_set(),
    );
    set
}

/// The Table 4 cells of a flow set: its distinct `(data group,
/// destination class)` pairs.
pub(crate) type CellSet = BTreeSet<(Level2, DestinationClass)>;

/// The cells of one trace category, merged across kinds and platforms:
/// `service.flows(category).group_class_set()`, read straight off the
/// exchanges without building the flows.
pub(crate) fn category_cells(service: &ObservedService, category: TraceCategory) -> CellSet {
    service
        .units
        .iter()
        .filter(|u| u.category == category)
        .flat_map(|u| u.exchanges.iter())
        .flat_map(|ex| ex.categories.iter().map(move |c| (c.level2(), ex.class)))
        .collect()
}

/// Jaccard similarity between the Table 4 cell sets of two trace categories
/// — the paper's "no service exhibited significantly different data
/// processing treatment" metric, made explicit.
pub fn age_similarity(service: &ObservedService, a: TraceCategory, b: TraceCategory) -> f64 {
    cell_similarity(&category_cells(service, a), &category_cells(service, b))
}

/// Jaccard similarity of two cell sets; two empty sets are identical.
pub(crate) fn cell_similarity(a: &CellSet, b: &CellSet) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let intersection = a.intersection(b).count();
    let union = a.union(b).count();
    intersection as f64 / union as f64
}

/// Platform-difference report for one service (paper §4.1.2 "Platform
/// Differences").
#[derive(Debug, Default)]
pub struct PlatformDiff {
    /// Cells observed only on mobile.
    pub mobile_only: Vec<(TraceCategory, Level2, FlowAction)>,
    /// Cells observed only on web (incl. desktop).
    pub web_only: Vec<(TraceCategory, Level2, FlowAction)>,
}

impl PlatformDiff {
    /// Build from an observed grid.
    pub fn build(grid: &ObservedGrid) -> PlatformDiff {
        let mut diff = PlatformDiff::default();
        for &(category, group, action, presence) in grid.cells() {
            match presence {
                CellPresence::MobileOnly => diff.mobile_only.push((category, group, action)),
                CellPresence::WebOnly => diff.web_only.push((category, group, action)),
                _ => {}
            }
        }
        diff
    }

    /// `true` when every mobile-only cell involves a third party — the
    /// paper's headline platform finding.
    pub fn mobile_only_all_third_party(&self) -> bool {
        self.mobile_only.iter().all(|(_, _, action)| {
            matches!(action, FlowAction::ShareThird | FlowAction::ShareThirdAts)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ClassificationMode, Pipeline};
    use diffaudit_services::{generate_dataset, service_by_slug, DatasetOptions};

    fn observed(slug: &str, seed: u64) -> ObservedService {
        let dataset = generate_dataset(&DatasetOptions {
            seed,
            volume_scale: 0.05,
            mobile_pinned_fraction: 0.1,
            services: vec![slug.into()],
        });
        let pipeline = Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone()));
        pipeline.run(&dataset).services.remove(0)
    }

    #[test]
    fn grid_recovers_spec_activity_exactly_with_oracle() {
        for slug in ["tiktok", "youtube"] {
            let service = observed(slug, 101);
            let spec = service_by_slug(slug).unwrap();
            let grid = ObservedGrid::build(&service);
            let (missing, spurious) = grid.compare_activity(&spec);
            assert!(missing.is_empty(), "{slug} missing cells: {missing:?}");
            assert!(spurious.is_empty(), "{slug} spurious cells: {spurious:?}");
        }
    }

    #[test]
    fn age_similarity_reflects_paper_finding() {
        // The paper: all services treat ages similarly. TikTok child vs
        // adult differ the most but still share most cells.
        let service = observed("tiktok", 55);
        let sim = age_similarity(&service, TraceCategory::Child, TraceCategory::Adult);
        assert!(sim > 0.5, "child/adult similarity {sim}");
        let self_sim = age_similarity(&service, TraceCategory::Adult, TraceCategory::Adult);
        assert!((self_sim - 1.0).abs() < 1e-9);
        // The cells it compares are those of the category's flow table.
        for category in TraceCategory::ALL {
            let cells = service.flows(category).group_class_set();
            assert_eq!(category_cells(&service, category), cells, "{category:?}");
        }
    }

    #[test]
    fn platform_diff_mobile_only_third_party() {
        let service = observed("tiktok", 7);
        let grid = ObservedGrid::build(&service);
        let diff = PlatformDiff::build(&grid);
        assert!(diff.mobile_only_all_third_party());
        assert!(!diff.web_only.is_empty(), "web-only cells expected");
    }
}
