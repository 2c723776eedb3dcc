//! User profiles, platforms, trace taxonomy (paper §3.1), and the capture
//! unit that carries one trace from the generator or an upload to the loader.

/// The three age groups COPPA/CCPA distinguish (paper: child < 13,
/// 13 ≤ adolescent < 16, adult ≥ 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AgeGroup {
    /// Under 13 (COPPA-protected).
    Child,
    /// 13–15 (CCPA opt-in protected).
    Adolescent,
    /// 16 and older.
    Adult,
}

impl AgeGroup {
    /// All groups in display order.
    pub const ALL: [AgeGroup; 3] = [AgeGroup::Child, AgeGroup::Adolescent, AgeGroup::Adult];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            AgeGroup::Child => "Child",
            AgeGroup::Adolescent => "Adolescent",
            AgeGroup::Adult => "Adult",
        }
    }

    /// A representative age for profile creation.
    pub fn representative_age(&self) -> u8 {
        match self {
            AgeGroup::Child => 10,
            AgeGroup::Adolescent => 14,
            AgeGroup::Adult => 25,
        }
    }

    /// `true` for the groups that require opt-in consent before sale/share
    /// under CCPA (and parental consent under COPPA for children).
    pub fn requires_opt_in(&self) -> bool {
        !matches!(self, AgeGroup::Adult)
    }
}

impl std::fmt::Display for AgeGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Capture platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Platform {
    /// Chrome + DevTools HAR capture.
    Web,
    /// PCAPdroid on a rooted Android device (pcap + key log).
    Mobile,
    /// Proxyman HAR capture (Roblox and Minecraft only).
    Desktop,
}

impl Platform {
    /// All platforms.
    pub const ALL: [Platform; 3] = [Platform::Web, Platform::Mobile, Platform::Desktop];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Platform::Web => "Web",
            Platform::Mobile => "Mobile",
            Platform::Desktop => "Desktop",
        }
    }

    /// Manifest and upload spelling: the lower-case label, `-` for spaces.
    pub fn spelling(&self) -> String {
        spelling(self.label())
    }

    /// Parse a [`spelling`](Platform::spelling) in any ASCII case, `_` for `-`.
    pub fn parse(s: &str) -> Option<Platform> {
        parse_spelling(s, &Self::ALL, Self::label)
    }

    /// Every spelling, `|`-separated, for error messages.
    pub fn spellings() -> String {
        Self::ALL.map(|v| v.spelling()).join("|")
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The three collection procedures (paper §3.1): account creation,
/// logged-in usage, logged-out usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Traffic during the whole account-creation funnel.
    AccountCreation,
    /// Traffic while logged in to an existing account.
    LoggedIn,
    /// Traffic with no account (no consent, no age disclosed).
    LoggedOut,
}

impl TraceKind {
    /// All kinds.
    pub const ALL: [TraceKind; 3] = [
        TraceKind::AccountCreation,
        TraceKind::LoggedIn,
        TraceKind::LoggedOut,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::AccountCreation => "Account Creation",
            TraceKind::LoggedIn => "Logged In",
            TraceKind::LoggedOut => "Logged Out",
        }
    }

    /// Manifest and upload spelling: the lower-case label, `-` for spaces.
    pub fn spelling(&self) -> String {
        spelling(self.label())
    }

    /// Parse a [`spelling`](TraceKind::spelling) in any ASCII case, `_` for `-`.
    pub fn parse(s: &str) -> Option<TraceKind> {
        parse_spelling(s, &Self::ALL, Self::label)
    }

    /// Every spelling, `|`-separated, for error messages.
    pub fn spellings() -> String {
        Self::ALL.map(|v| v.spelling()).join("|")
    }
}

/// The four columns of Table 4: the age-specific traces (account creation
/// and logged-in merged) plus the logged-out trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TraceCategory {
    /// Child account traffic.
    Child,
    /// Adolescent account traffic.
    Adolescent,
    /// Adult account traffic.
    Adult,
    /// Pre-consent traffic (no account).
    LoggedOut,
}

impl TraceCategory {
    /// All categories in Table 4 column order.
    pub const ALL: [TraceCategory; 4] = [
        TraceCategory::Child,
        TraceCategory::Adolescent,
        TraceCategory::Adult,
        TraceCategory::LoggedOut,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            TraceCategory::Child => "Child",
            TraceCategory::Adolescent => "Adolescent",
            TraceCategory::Adult => "Adult",
            TraceCategory::LoggedOut => "Logged Out",
        }
    }

    /// Manifest and upload spelling: the lower-case label, `-` for spaces.
    pub fn spelling(&self) -> String {
        spelling(self.label())
    }

    /// Parse a [`spelling`](TraceCategory::spelling) in any ASCII case, `_` for `-`.
    pub fn parse(s: &str) -> Option<TraceCategory> {
        parse_spelling(s, &Self::ALL, Self::label)
    }

    /// Every spelling, `|`-separated, for error messages.
    pub fn spellings() -> String {
        Self::ALL.map(|v| v.spelling()).join("|")
    }

    /// The age group, when this is an age-specific trace.
    pub fn age_group(&self) -> Option<AgeGroup> {
        match self {
            TraceCategory::Child => Some(AgeGroup::Child),
            TraceCategory::Adolescent => Some(AgeGroup::Adolescent),
            TraceCategory::Adult => Some(AgeGroup::Adult),
            TraceCategory::LoggedOut => None,
        }
    }

    /// Build from an age group.
    pub fn from_age(age: AgeGroup) -> TraceCategory {
        match age {
            AgeGroup::Child => TraceCategory::Child,
            AgeGroup::Adolescent => TraceCategory::Adolescent,
            AgeGroup::Adult => TraceCategory::Adult,
        }
    }

    /// `true` when consent has been given (any logged-in state).
    pub fn has_consent(&self) -> bool {
        !matches!(self, TraceCategory::LoggedOut)
    }
}

impl std::fmt::Display for TraceCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A capture unit's payload, held in memory: a generated unit, a serve
/// daemon upload (captures arrive over HTTP and never touch the
/// filesystem), or a file the disk loader has just read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryArtifact {
    /// HAR 1.2 text (DevTools/Proxyman exports).
    Har(String),
    /// pcap or pcapng bytes plus an optional `SSLKEYLOGFILE` text
    /// (the PCAPdroid path); the container format is sniffed from magic
    /// bytes by the auto decoder.
    Capture {
        /// Raw capture-file bytes.
        bytes: Vec<u8>,
        /// Sibling key-log text, if the client supplied one.
        keylog: Option<String>,
    },
}

impl MemoryArtifact {
    /// Artifact bytes the decoder reads (HAR text, or capture plus key
    /// log) — the `loader.unit.bytes.in` the resource profiler divides by.
    pub fn byte_len(&self) -> u64 {
        match self {
            MemoryArtifact::Har(text) => text.len() as u64,
            MemoryArtifact::Capture { bytes, keylog } => {
                bytes.len() as u64 + keylog.as_ref().map_or(0, |k| k.len() as u64)
            }
        }
    }
}

/// One capture unit: the manifest-entry metadata plus its in-memory
/// artifact. Cloning a unit shares the artifact rather than copying its
/// bytes.
#[derive(Debug, Clone)]
pub struct MemoryUnit {
    /// Display label for reports and the ledger: the artifact's file name
    /// on disk (a generated unit's is `<platform>-<category>-<kind>.<har|pcap>`).
    pub label: String,
    /// Capture platform.
    pub platform: Platform,
    /// Trace kind.
    pub kind: TraceKind,
    /// User-group category.
    pub category: TraceCategory,
    /// The artifact itself, shared: a generated dataset and its audit, or
    /// every serve job that references one upload. Mutate it through
    /// [`std::sync::Arc::make_mut`], so holders of the old artifact keep it
    /// unchanged.
    pub artifact: std::sync::Arc<MemoryArtifact>,
}

fn spelling(label: &str) -> String {
    label.to_ascii_lowercase().replace(' ', "-")
}

fn parse_spelling<T: Copy>(s: &str, all: &[T], label: fn(&T) -> &'static str) -> Option<T> {
    let wanted = s.to_ascii_lowercase().replace('_', "-");
    all.iter().copied().find(|v| spelling(label(v)) == wanted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn age_groups_match_law() {
        assert!(AgeGroup::Child.requires_opt_in());
        assert!(AgeGroup::Adolescent.requires_opt_in());
        assert!(!AgeGroup::Adult.requires_opt_in());
        assert!(AgeGroup::Child.representative_age() < 13);
        assert!((13..16).contains(&AgeGroup::Adolescent.representative_age()));
        assert!(AgeGroup::Adult.representative_age() >= 16);
    }

    #[test]
    fn trace_category_round_trip() {
        for age in AgeGroup::ALL {
            assert_eq!(TraceCategory::from_age(age).age_group(), Some(age));
        }
        assert_eq!(TraceCategory::LoggedOut.age_group(), None);
        assert!(!TraceCategory::LoggedOut.has_consent());
        assert!(TraceCategory::Child.has_consent());
    }

    #[test]
    fn spellings_round_trip_and_accept_case_and_underscores() {
        for p in Platform::ALL {
            assert_eq!(Platform::parse(&p.spelling()), Some(p));
        }
        for k in TraceKind::ALL {
            assert_eq!(TraceKind::parse(&k.spelling()), Some(k));
        }
        for c in TraceCategory::ALL {
            assert_eq!(TraceCategory::parse(&c.spelling()), Some(c));
        }
        assert_eq!(Platform::parse("WEB"), Some(Platform::Web));
        assert_eq!(
            TraceKind::parse("Account_Creation"),
            Some(TraceKind::AccountCreation)
        );
        assert_eq!(
            TraceCategory::parse("logged_out"),
            Some(TraceCategory::LoggedOut)
        );
        assert_eq!(Platform::parse("gameboy"), None);
        assert_eq!(TraceCategory::parse("logged-in"), None);
        assert_eq!(Platform::spellings(), "web|mobile|desktop");
        assert_eq!(
            TraceKind::spellings(),
            "account-creation|logged-in|logged-out"
        );
        assert_eq!(
            TraceCategory::spellings(),
            "child|adolescent|adult|logged-out"
        );
    }
}
