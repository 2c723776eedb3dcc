//! Raw-key normalization and the acronym/abbreviation lexicon.
//!
//! Network payload keys arrive as `camelCase`, `snake_case`, `kebab-case`,
//! dotted paths, header-style `X-Prefixed-Names`, and dense acronyms
//! (`rtt`, `ttfb`, `idfa`). The tokenizer splits all of those into lowercase
//! word tokens; the lexicon expands acronyms and common abbreviations into
//! the vocabulary the ontology speaks. The paper leans on GPT-4's world
//! knowledge for this expansion — the lexicon is that knowledge, made
//! explicit and testable.

/// A reusable token arena: one shared text buffer plus `(start, end)` bounds
/// per token, so batch classification tokenizes thousands of keys without a
/// `String` allocation per token. [`tokenize`] delegates through this type,
/// which keeps the boundary algorithm in exactly one place.
#[derive(Debug, Default)]
pub struct TokenArena {
    text: String,
    bounds: Vec<(u32, u32)>,
    chars: Vec<char>,
}

impl TokenArena {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all tokens but keep the allocated buffers.
    pub fn clear(&mut self) {
        self.text.clear();
        self.bounds.clear();
    }

    /// Number of tokens currently held.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// `true` when the arena holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Token `i` as a string slice into the shared buffer.
    pub fn token(&self, i: usize) -> &str {
        let (start, end) = self.bounds[i];
        &self.text[start as usize..end as usize]
    }

    /// Split `raw` into lowercase word tokens appended to the arena;
    /// returns the index range of the new tokens.
    ///
    /// Boundaries: any non-alphanumeric character, a lower→upper case change
    /// (`deviceId` → `device id`), and letter↔digit changes (`ip4addr` →
    /// `ip 4 addr`). Runs of uppercase are kept together until a lowercase
    /// follows (`HTTPRequest` → `http request`).
    pub fn split(&mut self, raw: &str) -> std::ops::Range<usize> {
        let first = self.bounds.len();
        self.chars.clear();
        self.chars.extend(raw.chars());
        let mut start = self.text.len();
        for i in 0..self.chars.len() {
            let c = self.chars[i];
            if !c.is_alphanumeric() {
                if self.text.len() > start {
                    self.bounds.push((start as u32, self.text.len() as u32));
                    start = self.text.len();
                }
                continue;
            }
            if self.text.len() > start {
                let prev = self.chars[i - 1];
                let boundary =
                    // fooBar
                    (prev.is_lowercase() && c.is_uppercase())
                    // HTTPRequest -> HTTP | Request (upper run followed by Upper+lower)
                    || (prev.is_uppercase()
                        && c.is_uppercase()
                        && self.chars.get(i + 1).is_some_and(|n| n.is_lowercase()))
                    // letter <-> digit
                    || (prev.is_ascii_digit() != c.is_ascii_digit()
                        && (prev.is_alphanumeric() && c.is_alphanumeric())
                        && (prev.is_ascii_digit() || c.is_ascii_digit()));
                if boundary {
                    self.bounds.push((start as u32, self.text.len() as u32));
                    start = self.text.len();
                }
            }
            // Keep only the alphanumeric chars of the lowercase form: 'İ'
            // lowercases to "i\u{307}", and the combining dot is no letter.
            self.text
                .extend(c.to_lowercase().filter(|lc| lc.is_alphanumeric()));
        }
        if self.text.len() > start {
            self.bounds.push((start as u32, self.text.len() as u32));
        }
        first..self.bounds.len()
    }
}

/// Split a raw key into lowercase word tokens (see [`TokenArena::split`] for
/// the boundary rules).
pub fn tokenize(raw: &str) -> Vec<String> {
    let mut arena = TokenArena::new();
    let range = arena.split(raw);
    range.map(|i| arena.token(i).to_string()).collect()
}

/// The acronym/abbreviation lexicon: token → expansion tokens.
///
/// Sourced from the level-4 vocabulary in paper Table 5 (which itself spells
/// out `IMEI`, `RTT`, `TTFB`, etc.) plus the abbreviations every mobile/web
/// SDK uses in payload keys.
pub const LEXICON: &[(&str, &str)] = &[
    ("os", "operating system"),
    ("rtt", "round trip time"),
    ("ttfb", "time to first byte"),
    ("dob", "date of birth"),
    ("bday", "birthday"),
    ("lang", "language"),
    ("lat", "latitude"),
    ("lon", "longitude"),
    ("lng", "longitude"),
    ("alt", "altitude"),
    ("geo", "geolocation"),
    ("gps", "gps location"),
    ("addr", "address"),
    ("uid", "user id"),
    ("usr", "user"),
    ("uname", "user name"),
    ("ua", "user agent"),
    ("tz", "timezone"),
    ("ts", "timestamp"),
    ("dt", "date"),
    ("idfa", "advertising identifier"),
    ("idfv", "vendor identifier"),
    ("gaid", "advertising identifier"),
    ("adid", "advertising identifier"),
    ("aaid", "advertising identifier"),
    ("imei", "device hardware identifier imei"),
    ("mac", "mac address"),
    ("ssid", "network name"),
    ("msg", "message"),
    ("pwd", "password"),
    ("passwd", "password"),
    ("pass", "password"),
    ("auth", "authentication"),
    ("authz", "authorization"),
    ("creds", "credentials"),
    ("tok", "token"),
    ("jwt", "auth token"),
    ("oauth", "authorization"),
    ("sess", "session"),
    ("sid", "session id"),
    ("cid", "client id"),
    ("did", "device id"),
    ("pid", "profile id"),
    ("res", "resolution"),
    ("px", "pixel"),
    ("dpi", "display density"),
    ("dpr", "display density"),
    ("fps", "frames per second"),
    ("abr", "adaptive bitrate"),
    ("br", "bitrate"),
    ("cpu", "cpu"),
    ("mem", "memory"),
    ("bat", "battery"),
    ("net", "network"),
    ("conn", "connection"),
    ("dns", "dns"),
    ("tcp", "tcp"),
    ("tls", "tls"),
    ("http", "request protocol"),
    ("url", "url"),
    ("uri", "uri"),
    ("ref", "referer"),
    ("referrer", "referer"),
    ("sdk", "sdk"),
    ("api", "api"),
    ("app", "app"),
    ("pkg", "application package"),
    ("ver", "version"),
    ("env", "environment"),
    ("cfg", "settings"),
    ("config", "settings"),
    ("prefs", "preferences"),
    ("opts", "settings"),
    ("gdpr", "consent"),
    ("ccpa", "consent"),
    ("coppa", "consent"),
    ("tcf", "consent"),
    ("fn", "first name"),
    ("ln", "last name"),
    ("tel", "telephone number"),
    ("ph", "phone number"),
    ("zip", "zip code"),
    ("cc", "country"),
    ("ctry", "country"),
    ("rgn", "region"),
    ("loc", "location"),
    ("img", "image"),
    ("vid", "video"),
    ("aud", "audio"),
    ("vol", "volume"),
    ("dur", "duration"),
    ("cnt", "count"),
    ("evt", "event"),
    ("evts", "events"),
    ("imp", "ad impression"),
    ("clk", "ad click"),
    ("cpm", "bid"),
    ("rtb", "bid"),
    ("dmp", "audience segment"),
    ("seg", "segment"),
    ("utm", "marketing"),
    ("promo", "marketing"),
    ("xp", "score"),
    ("hp", "game state"),
    ("acct", "account"),
    ("num", "number"),
    ("no", "number"),
    ("id", "id"),
    ("ids", "id"),
    ("info", "information"),
    // World-knowledge synonyms: developer field names that GPT-4 resolves
    // semantically even though they share no characters with the ontology
    // vocabulary.
    ("moniker", "user name"),
    ("mailbox", "email address"),
    ("hotline", "phone number"),
    ("gamertag", "alias"),
    ("screenname", "alias"),
    ("otp", "authentication"),
    ("bearer", "auth token"),
    ("secret", "password"),
    ("anon", "unique pseudonym"),
    ("visitor", "user id"),
    ("imsi", "device hardware identifier imei"),
    ("fbp", "tracking identifier"),
    ("muid", "advertising identifier"),
    ("handset", "device model"),
    ("viewport", "screen"),
    ("chipset", "cpu"),
    ("yob", "birth year"),
    ("cohort", "age group"),
    ("i18n", "locale"),
    ("l10n", "locale"),
    ("salutation", "gender"),
    ("territory", "region"),
    ("epoch", "timestamp"),
    ("clock", "time"),
    ("dst", "timezone"),
    ("ping", "round trip time"),
    ("downlink", "bandwidth"),
    ("mtu", "connection"),
    ("sponsor", "advertiser"),
    ("cpc", "ad click"),
    ("monetize", "marketing"),
    ("engagement", "interaction"),
    ("streak", "usage session"),
    ("toggles", "settings"),
    ("flags", "settings"),
    ("runtime", "environment"),
    ("cluster", "audience segment"),
    ("propensity", "purchase tendency"),
    ("lookalike", "audience segment"),
];

/// Expand tokens through the lexicon, yielding the normalized token stream.
/// Unknown tokens pass through unchanged.
pub fn expand(tokens: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(tokens.len());
    for token in tokens {
        match LEXICON.iter().find(|(abbr, _)| abbr == token) {
            Some((_, expansion)) => out.extend(expansion.split(' ').map(str::to_string)),
            None => out.push(token.clone()),
        }
    }
    out
}

/// Tokenize and expand in one step; the normalized form every classifier
/// consumes.
pub fn normalize(raw: &str) -> Vec<String> {
    expand(&tokenize(raw))
}

/// The normalized form re-joined into a phrase (for n-gram vectorizers).
pub fn normalize_phrase(raw: &str) -> String {
    normalize(raw).join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(raw: &str) -> Vec<String> {
        tokenize(raw)
    }

    #[test]
    fn splits_snake_and_kebab() {
        assert_eq!(toks("device_id"), ["device", "id"]);
        assert_eq!(toks("user-agent"), ["user", "agent"]);
        assert_eq!(toks("a.b.c"), ["a", "b", "c"]);
    }

    #[test]
    fn splits_camel_case() {
        assert_eq!(toks("deviceId"), ["device", "id"]);
        assert_eq!(
            toks("IsOptOutEmailShown"),
            ["is", "opt", "out", "email", "shown"]
        );
        assert_eq!(toks("HTTPRequest"), ["http", "request"]);
        assert_eq!(toks("parseJSONBody"), ["parse", "json", "body"]);
    }

    #[test]
    fn splits_digits() {
        assert_eq!(toks("ip4addr"), ["ip", "4", "addr"]);
        assert_eq!(toks("utm_source2"), ["utm", "source", "2"]);
    }

    #[test]
    fn lowercase_expansions_keep_only_alphanumerics() {
        assert_eq!(toks("userİD"), ["user", "id"]);
        assert_eq!(toks("İ"), ["i"]);
    }

    #[test]
    fn header_style() {
        assert_eq!(toks("X-Advertising-Id"), ["x", "advertising", "id"]);
    }

    #[test]
    fn paper_examples() {
        assert_eq!(
            toks("pers_ad_show_third_part_measurement"),
            ["pers", "ad", "show", "third", "part", "measurement"]
        );
    }

    #[test]
    fn empty_and_punct_only() {
        assert!(toks("").is_empty());
        assert!(toks("___--..").is_empty());
    }

    #[test]
    fn expansion() {
        assert_eq!(normalize_phrase("os_ver"), "operating system version");
        assert_eq!(normalize_phrase("rtt"), "round trip time");
        assert_eq!(normalize_phrase("user_dob"), "user date of birth");
        assert_eq!(normalize_phrase("idfa"), "advertising identifier");
        assert_eq!(normalize_phrase("unknown_blob"), "unknown blob");
    }

    #[test]
    fn arena_keeps_tokens_across_keys_and_clears() {
        let mut arena = TokenArena::new();
        let a = arena.split("deviceId");
        let b = arena.split("HTTPRequest");
        let got_a: Vec<&str> = a.map(|i| arena.token(i)).collect();
        let got_b: Vec<&str> = b.map(|i| arena.token(i)).collect();
        assert_eq!(got_a, ["device", "id"]);
        assert_eq!(got_b, ["http", "request"]);
        assert_eq!(arena.len(), 4);
        arena.clear();
        assert!(arena.is_empty());
        let c = arena.split("ip4addr");
        let got_c: Vec<&str> = c.map(|i| arena.token(i)).collect();
        assert_eq!(got_c, ["ip", "4", "addr"]);
    }

    #[test]
    fn lexicon_keys_are_unique_and_lowercase() {
        let mut keys: Vec<&str> = LEXICON.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        let n = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), n, "duplicate lexicon key");
        for (k, v) in LEXICON {
            assert_eq!(*k, k.to_lowercase());
            assert_eq!(*v, v.to_lowercase());
        }
    }
}
