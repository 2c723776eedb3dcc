//! Property-based tests for domain parsing, eSLD extraction, and URL
//! handling, on the workspace's seeded runner (`diffaudit_util::prop`).

use diffaudit_domains::url::{percent_decode, percent_encode};
use diffaudit_domains::{extract, DomainName, Url};
use diffaudit_util::prop::{self, check};
use diffaudit_util::Rng;

const CASES: u32 = 512;

const LOWER_DIGIT: &str = "abcdefghijklmnopqrstuvwxyz0123456789";
const LABEL_CHARS: &str = "abcdefghijklmnopqrstuvwxyz0123456789-";
const PATH_CHARS: &str = "abcdefghijklmnopqrstuvwxyz0123456789._-";
const QUERY_CHARS: &str = "abcdefghijklmnopqrstuvwxyz0123456789=&+%._-";

/// A syntactically valid domain label: `[a-z0-9]([a-z0-9-]{0,10}[a-z0-9])?`.
fn arb_label(rng: &mut Rng) -> String {
    let mut label = prop::string_over(rng, LOWER_DIGIT, 1..=1);
    if rng.chance(0.5) {
        label.push_str(&prop::string_over(rng, LABEL_CHARS, 0..=10));
        label.push_str(&prop::string_over(rng, LOWER_DIGIT, 1..=1));
    }
    label
}

/// A valid FQDN of 2–5 labels.
fn arb_domain(rng: &mut Rng) -> String {
    let labels: Vec<String> = (0..rng.range(2, 6)).map(|_| arb_label(rng)).collect();
    labels.join(".")
}

#[test]
fn parse_never_panics() {
    check("parse_never_panics", CASES, |rng| {
        let _ = DomainName::parse(&prop::text(rng, 0..=100));
    });
}

#[test]
fn valid_domains_parse_and_display() {
    check("valid_domains_parse_and_display", CASES, |rng| {
        let domain = arb_domain(rng);
        let parsed = DomainName::parse(&domain).unwrap();
        assert_eq!(parsed.as_str(), domain.as_str());
        assert_eq!(parsed.to_string(), domain);
    });
}

#[test]
fn uppercase_normalizes() {
    check("uppercase_normalizes", CASES, |rng| {
        let domain = arb_domain(rng);
        let parsed = DomainName::parse(&domain.to_uppercase()).unwrap();
        assert_eq!(parsed.as_str(), domain.as_str());
    });
}

#[test]
fn extract_recomposes_the_name() {
    check("extract_recomposes_the_name", CASES, |rng| {
        let domain = arb_domain(rng);
        let parts = extract(&DomainName::parse(&domain).unwrap());
        let mut recomposed = String::new();
        if !parts.subdomain.is_empty() {
            recomposed.push_str(&parts.subdomain);
            recomposed.push('.');
        }
        if !parts.domain.is_empty() {
            recomposed.push_str(&parts.domain);
            recomposed.push('.');
        }
        recomposed.push_str(&parts.suffix);
        assert_eq!(recomposed, domain);
    });
}

#[test]
fn esld_is_a_suffix_of_the_name() {
    check("esld_is_a_suffix_of_the_name", CASES, |rng| {
        let name = DomainName::parse(&arb_domain(rng)).unwrap();
        if let Some(esld) = extract(&name).esld() {
            let esld_name = DomainName::parse(&esld).unwrap();
            assert!(name.is_within(&esld_name), "{name} not within {esld_name}");
        }
    });
}

#[test]
fn subdomains_share_the_esld() {
    check("subdomains_share_the_esld", CASES, |rng| {
        let domain = arb_domain(rng);
        let sub = arb_label(rng);
        let base = DomainName::parse(&domain).unwrap();
        let deeper = DomainName::parse(&format!("{sub}.{domain}")).unwrap();
        assert_eq!(extract(&base).esld(), extract(&deeper).esld());
    });
}

#[test]
fn is_within_is_reflexive_and_antisymmetric() {
    check("is_within_is_reflexive_and_antisymmetric", CASES, |rng| {
        let da = DomainName::parse(&arb_domain(rng)).unwrap();
        let db = DomainName::parse(&arb_domain(rng)).unwrap();
        assert!(da.is_within(&da));
        if da.is_within(&db) && db.is_within(&da) {
            assert_eq!(da, db);
        }
    });
}

#[test]
fn percent_coding_round_trips() {
    check("percent_coding_round_trips", CASES, |rng| {
        let s = prop::text(rng, 0..=60);
        assert_eq!(percent_decode(&percent_encode(&s)), s);
    });
}

#[test]
fn percent_decode_never_panics() {
    check("percent_decode_never_panics", CASES, |rng| {
        let _ = percent_decode(&prop::text(rng, 0..=60));
    });
}

#[test]
fn url_round_trips() {
    check("url_round_trips", CASES, |rng| {
        let mut url = format!("https://{}", arb_domain(rng));
        if rng.chance(0.5) {
            url.push_str(&format!(":{}", rng.range(1, 65_536)));
        }
        let path: String = (0..rng.range(0, 5))
            .map(|_| format!("/{}", prop::string_over(rng, PATH_CHARS, 0..=8)))
            .collect();
        url.push_str(if path.is_empty() { "/" } else { &path });
        if rng.chance(0.5) {
            url.push('?');
            url.push_str(&prop::string_over(rng, QUERY_CHARS, 0..=30));
        }
        assert_eq!(Url::parse(&url).unwrap().to_url_string(), url);
    });
}

#[test]
fn url_parse_never_panics() {
    check("url_parse_never_panics", CASES, |rng| {
        let _ = Url::parse(&prop::text(rng, 0..=120));
    });
}
