//! Micro-benchmarks for classification and destination analysis, including
//! the design-choice ablations called out in DESIGN.md: trie vs naive
//! block-list matching, and single-model vs ensemble classification.
//!
//! Timed with the std-only [`diffaudit_bench::stopwatch`] harness; run with
//! `cargo bench -p diffaudit-bench --bench classify`.

use diffaudit_bench::stopwatch::run;
use diffaudit_blocklist::matcher::NaiveMatcher;
use diffaudit_blocklist::{ats, DomainMatcher};
use diffaudit_classifier::llm::{LlmClassifier, LlmOptions};
use diffaudit_classifier::{ConfidenceAggregation, MajorityEnsemble};
use diffaudit_domains::{extract, DomainName};
use std::hint::black_box;

const KEYS: [&str; 12] = [
    "device_id",
    "advertisingIdentifier",
    "X-Forwarded-Lang",
    "os_ver",
    "rtt",
    "usr_bday",
    "zq7_blk",
    "session_token",
    "geo_country",
    "utm_campaign",
    "IsOptOutEmailShown",
    "pers_ad_show_third_part_measurement",
];

const HOSTS: [&str; 5] = [
    "stats.g.doubleclick.net",
    "browser.events.data.microsoft.com",
    "www.roblox.com",
    "shop.example.co.uk",
    "a.b.c.d.e.tracker.io",
];

const PROBES: [&str; 6] = [
    "stats.g.doubleclick.net",
    "api.roblox.com",
    "t.appsflyer.com",
    "cdn.shopify.com",
    "deep.sub.domain.clean-site.org",
    "metrics.roblox.com",
];

/// Build the trie and naive matchers over the embedded ATS lists.
fn matchers() -> (DomainMatcher, NaiveMatcher) {
    let lists = ats::embedded_lists();
    let mut trie = DomainMatcher::new();
    let mut naive = NaiveMatcher::new();
    for list in &lists {
        trie.add_list(&list.name, &list.domains);
        naive.add_list(&list.name, &list.domains);
    }
    (trie, naive)
}

fn parse_all(hosts: &[&str]) -> Vec<DomainName> {
    hosts
        .iter()
        .map(|h| DomainName::parse(h).unwrap())
        .collect()
}

fn main() {
    let model = LlmClassifier::new(LlmOptions::default());
    let ensemble = MajorityEnsemble::new(1, ConfidenceAggregation::Average);
    run("classify/llm_batch_12", || {
        black_box(model.classify_batch(black_box(&KEYS)));
    });
    run("classify/ensemble_batch_12", || {
        black_box(ensemble.classify_batch(black_box(&KEYS)));
    });

    let names = parse_all(&HOSTS);
    run("domains/parse_5", || {
        black_box(parse_all(black_box(&HOSTS)));
    });
    run("domains/esld_extract_5", || {
        for n in &names {
            black_box(extract(n).esld());
        }
    });

    let (trie, naive) = matchers();
    let probes = parse_all(&PROBES);
    run("blocklist/trie_6_lookups", || {
        for p in &probes {
            black_box(trie.is_blocked(p));
        }
    });
    run("blocklist/naive_6_lookups", || {
        for p in &probes {
            black_box(naive.is_blocked(p));
        }
    });
}
