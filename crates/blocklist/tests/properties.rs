//! Property-based tests: the trie matcher must agree with the naive
//! reference on arbitrary list/probe combinations, and destination
//! classification must be total and consistent. They run on the
//! workspace's seeded runner (`diffaudit_util::prop`).

use diffaudit_blocklist::matcher::NaiveMatcher;
use diffaudit_blocklist::{DestinationClass, DomainMatcher, PartyClassifier};
use diffaudit_domains::DomainName;
use diffaudit_util::prop::{self, check};
use diffaudit_util::Rng;

const CASES: u32 = 512;

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

/// A domain of 2–4 labels over `[a-z]{1,6}`.
fn arb_domain(rng: &mut Rng) -> String {
    let labels: Vec<String> = (0..rng.range(2, 5))
        .map(|_| prop::string_over(rng, LOWER, 1..=6))
        .collect();
    labels.join(".")
}

fn arb_domains(rng: &mut Rng, count: std::ops::Range<usize>) -> Vec<String> {
    (0..rng.range(count.start, count.end))
        .map(|_| arb_domain(rng))
        .collect()
}

fn parse_all(domains: &[String]) -> Vec<DomainName> {
    domains
        .iter()
        .map(|d| DomainName::parse(d).unwrap())
        .collect()
}

#[test]
fn trie_equals_naive() {
    check("trie_equals_naive", CASES, |rng| {
        let entries = parse_all(&arb_domains(rng, 0..30));
        let probes = arb_domains(rng, 0..30);
        let mut trie = DomainMatcher::new();
        let mut naive = NaiveMatcher::new();
        trie.add_list("l", &entries);
        naive.add_list("l", &entries);
        for probe in &probes {
            let name = DomainName::parse(probe).unwrap();
            assert_eq!(
                trie.is_blocked(&name),
                naive.is_blocked(&name),
                "divergence on {probe}"
            );
        }
    });
}

#[test]
fn entries_block_themselves_and_subdomains() {
    check("entries_block_themselves_and_subdomains", CASES, |rng| {
        let entries = arb_domains(rng, 1..20);
        let sub = prop::string_over(rng, LOWER, 1..=6);
        let mut trie = DomainMatcher::new();
        trie.add_list("l", &parse_all(&entries));
        for entry in &entries {
            assert!(trie.is_blocked(&DomainName::parse(entry).unwrap()));
            let deeper = format!("{sub}.{entry}");
            assert!(trie.is_blocked(&DomainName::parse(&deeper).unwrap()));
        }
    });
}

#[test]
fn classification_is_total_and_consistent() {
    let classifier = PartyClassifier::new(&["roblox.com"]);
    check("classification_is_total_and_consistent", CASES, |rng| {
        let name = DomainName::parse(&arb_domain(rng)).unwrap();
        let class = classifier.classify(&name);
        // Class predicates must agree with the classifier's components.
        assert_eq!(class.is_ats(), classifier.is_ats(&name));
        assert_eq!(!class.is_third_party(), classifier.is_first_party(&name));
        // Classification is deterministic.
        assert_eq!(classifier.classify(&name), class);
    });
}

#[test]
fn service_subdomains_are_always_first_party() {
    let classifier = PartyClassifier::new(&["roblox.com"]);
    check("service_subdomains_are_always_first_party", CASES, |rng| {
        let sub = prop::string_over(rng, LOWER, 1..=8);
        let name = DomainName::parse(&format!("{sub}.roblox.com")).unwrap();
        assert!(matches!(
            classifier.classify(&name),
            DestinationClass::FirstParty | DestinationClass::FirstPartyAts
        ));
    });
}
