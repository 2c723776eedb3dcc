//! The paper's headline findings, asserted as executable claims over the
//! reproduced dataset (§1 contributions, §4 key takeaways, §4.2).

use diffaudit::audit::{audit_service, AuditRule};
use diffaudit::diff::{age_similarity, ObservedGrid, PlatformDiff};
use diffaudit::linkability;
use diffaudit::pipeline::{AuditOutcome, ClassificationMode, Pipeline};
use diffaudit::stats::summarize;
use diffaudit_blocklist::DestinationClass;
use diffaudit_ontology::Level2;
use diffaudit_services::{generate_dataset, service_by_slug, DatasetOptions, TraceCategory};
use std::sync::OnceLock;

/// The seed-2023, scale-0.06 Oracle audit every claim below reads, built
/// once per test binary on first use.
fn full_outcome() -> &'static AuditOutcome {
    static OUTCOME: OnceLock<AuditOutcome> = OnceLock::new();
    OUTCOME.get_or_init(|| {
        let dataset = generate_dataset(&DatasetOptions {
            seed: 2023,
            volume_scale: 0.06,
            mobile_pinned_fraction: 0.12,
            services: Vec::new(),
        });
        Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone())).run(&dataset)
    })
}

/// §4.1.1: "All of the services engaged in data collection and/or sharing
/// prior to consent and age disclosure."
#[test]
fn all_services_process_data_before_consent() {
    let outcome = full_outcome();
    for service in &outcome.services {
        let flows = service.flows(TraceCategory::LoggedOut);
        assert!(
            !flows.is_empty(),
            "{} has no logged-out flows",
            service.name
        );
    }
}

/// §4.1.1: "All but one of the services (YouTube) was observed sharing
/// identifiers and personal information with third party ATS while
/// logged-out."
#[test]
fn all_but_youtube_share_with_ats_pre_consent() {
    let outcome = full_outcome();
    for service in &outcome.services {
        let flows = service.flows(TraceCategory::LoggedOut);
        let shares_ats = Level2::TABLE4_ROWS
            .iter()
            .any(|&g| flows.has_group_class(g, DestinationClass::ThirdPartyAts));
        if service.slug.as_str() == "youtube" {
            assert!(!shares_ats, "YouTube must not share with third-party ATS");
        } else {
            assert!(
                shares_ats,
                "{} must share with ATS logged out",
                service.name
            );
        }
    }
}

/// §4.1.2 key takeaway: "No service exhibited significantly different data
/// processing treatment of the child and adolescent users compared to the
/// adult users."
#[test]
fn no_service_differentiates_by_age() {
    let outcome = full_outcome();
    for service in &outcome.services {
        let child = age_similarity(service, TraceCategory::Child, TraceCategory::Adult);
        let adolescent = age_similarity(service, TraceCategory::Adolescent, TraceCategory::Adult);
        assert!(
            child >= 0.6 && adolescent >= 0.7,
            "{}: child/adult {child:.2}, adolescent/adult {adolescent:.2}",
            service.name
        );
    }
}

/// §4.1.2 platform differences: mobile-only flows exist only for Roblox,
/// TikTok, Minecraft, Duolingo and all involve third parties; web-only
/// flows exist for every service.
#[test]
fn platform_differences_match_paper() {
    let outcome = full_outcome();
    for service in &outcome.services {
        let grid = ObservedGrid::build(service);
        let diff = PlatformDiff::build(&grid);
        if !diff.mobile_only.is_empty() {
            assert!(
                ["roblox", "tiktok", "minecraft", "duolingo"].contains(&service.slug.as_str()),
                "{} has unexpected mobile-only flows",
                service.name
            );
            assert!(
                diff.mobile_only_all_third_party(),
                "{}: mobile-only flows must involve third parties",
                service.name
            );
        }
        assert!(
            !diff.web_only.is_empty(),
            "{} should exhibit web-only flows",
            service.name
        );
    }
}

/// §4.2: all services except YouTube sent linkable data to third parties in
/// every trace category; Quizlet has the highest counts for adolescent,
/// adult, and logged-out; child counts do not exceed adult counts.
#[test]
fn linkability_findings_match_paper() {
    let outcome = full_outcome();
    let counts: Vec<(String, Vec<usize>)> = outcome
        .services
        .iter()
        .map(|s| {
            (
                s.slug.clone(),
                TraceCategory::ALL
                    .iter()
                    .map(|&c| linkability::linkable_third_party_count(s, c))
                    .collect(),
            )
        })
        .collect();
    for (slug, per_trace) in &counts {
        if *slug == "youtube" {
            assert!(per_trace.iter().all(|&c| c == 0), "YouTube must be zero");
        } else {
            assert!(
                per_trace.iter().all(|&c| c > 0),
                "{slug} must send linkable data in every trace: {per_trace:?}"
            );
        }
    }
    // Paper: "most of the services sharing linkable data types with a
    // smaller number of third parties for the child category compared to
    // ... the adolescent and adult categories" — a majority claim, plus the
    // aggregate ordering.
    let child_below_adult = counts
        .iter()
        .filter(|(s, p)| *s != "youtube" && p[0] <= p[2])
        .count();
    assert!(
        child_below_adult >= 3,
        "most services must have child ≤ adult: {counts:?}"
    );
    let total = |idx: usize| counts.iter().map(|(_, p)| p[idx]).sum::<usize>();
    assert!(
        total(0) < total(2),
        "aggregate child ({}) must be below adult ({})",
        total(0),
        total(2)
    );
}

/// Fig. 3 / Fig. 4 dominance claims need realistic traffic volume: the
/// paper's Quizlet counts (219/234 third parties) reflect hour-long traces.
/// At 30% volume over the three largest-fan-out services, Quizlet must have
/// the most linkable third parties in the adolescent, adult and logged-out
/// traces, and the dataset's largest linkable set must belong to Quizlet's
/// adult trace (the paper's 13-type set).
#[test]
fn quizlet_dominance_at_volume() {
    let dataset = generate_dataset(&DatasetOptions {
        seed: 2023,
        volume_scale: 0.3,
        mobile_pinned_fraction: 0.12,
        services: vec!["minecraft".into(), "quizlet".into(), "roblox".into()],
    });
    let outcome =
        Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone())).run(&dataset);
    let counts: Vec<(String, Vec<usize>)> = outcome
        .services
        .iter()
        .map(|s| {
            (
                s.slug.clone(),
                TraceCategory::ALL
                    .iter()
                    .map(|&c| linkability::linkable_third_party_count(s, c))
                    .collect(),
            )
        })
        .collect();
    let quizlet = counts.iter().find(|(s, _)| *s == "quizlet").unwrap();
    for (slug, per_trace) in &counts {
        if *slug == "quizlet" {
            continue;
        }
        for idx in [1usize, 2, 3] {
            assert!(
                quizlet.1[idx] > per_trace[idx],
                "Quizlet must dominate trace {idx}: quizlet {:?} vs {slug} {per_trace:?}",
                quizlet.1
            );
        }
    }

    let mut best: (usize, &str, TraceCategory) = (0, "", TraceCategory::Child);
    for service in &outcome.services {
        for trace in TraceCategory::ALL {
            let (size, _) = linkability::largest_linkable_set(service, trace);
            if size > best.0 {
                best = (size, service.slug.as_str(), trace);
            }
        }
    }
    assert_eq!(best.1, "quizlet", "largest set owner: {best:?}");
    assert!(
        best.0 >= 10,
        "Quizlet's largest set should be large: {}",
        best.0
    );
    let (q_adult, set) = linkability::largest_linkable_set(
        outcome
            .services
            .iter()
            .find(|s| s.slug.as_str() == "quizlet")
            .unwrap(),
        TraceCategory::Adult,
    );
    assert!(q_adult >= 10, "Quizlet adult set: {q_adult}");
    assert!(set.iter().any(|c| c.is_identifier()));
    assert!(set.iter().any(|c| !c.is_identifier()));
}

/// §4.1.2: privacy-policy inconsistencies exist for every service except
/// YouTube ("All but one of the services engaged in data processing
/// practices that were not disclosed in their privacy policy").
#[test]
fn policy_inconsistencies_all_but_youtube() {
    let outcome = full_outcome();
    for service in &outcome.services {
        let spec = service_by_slug(&service.slug).unwrap();
        let findings = audit_service(service, &spec);
        let undisclosed = findings
            .iter()
            .any(|f| f.rule == AuditRule::UndisclosedFlow);
        if service.slug.as_str() == "youtube" {
            assert!(
                !undisclosed,
                "YouTube's policy must be consistent with its behavior"
            );
        } else {
            assert!(undisclosed, "{} must have undisclosed flows", service.name);
        }
    }
}

/// Table 1 shape: Quizlet contacts the most domains/eSLDs, YouTube the
/// fewest; per-service eSLD ordering follows the paper (Quizlet ≫ rest,
/// Roblox/TikTok/YouTube smallest).
#[test]
fn dataset_summary_shape_matches_table1() {
    let outcome = full_outcome();
    let summary = summarize(&outcome);
    assert_eq!(summary.services.len(), 6);
    let get = |name: &str| {
        summary
            .services
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    let quizlet = get("Quizlet");
    for other in ["Duolingo", "Minecraft", "Roblox", "TikTok", "YouTube"] {
        assert!(
            quizlet.eslds > get(other).eslds,
            "Quizlet eSLDs must dominate {other}"
        );
        assert!(
            quizlet.domains > get(other).domains,
            "Quizlet domains must dominate {other}"
        );
    }
    assert!(get("YouTube").eslds < get("Duolingo").eslds);
    // Packets-per-flow ordering (paper: YouTube richest flows, Quizlet and
    // TikTok leanest).
    let ppf = |name: &str| get(name).packets as f64 / get(name).tcp_flows as f64;
    assert!(ppf("YouTube") > ppf("Quizlet"));
    assert!(ppf("Minecraft") > ppf("TikTok"));
    // Headline counts exist at every scale.
    assert!(summary.unique_data_types > 500);
    assert!(summary.unique_data_flows > 1000);
}
