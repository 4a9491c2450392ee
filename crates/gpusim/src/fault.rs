//! Deterministic fault injection for the device runtime.
//!
//! A [`FaultPlan`] names *call sites* in the driver/simulator surface
//! ([`FaultSite`]) and injects an [`ExecError`] on chosen call numbers.
//! Plans are deterministic: the `n`-th call to a site always behaves the
//! same for a given plan, so robustness tests are exactly reproducible.
//!
//! Rules come in three flavours, mirroring real driver failure modes:
//!
//! * **transient** — a bounded run of failing calls (`times` finite), e.g.
//!   a launch that fails twice and then succeeds. Surfaced as
//!   [`ExecError::Transient`] so callers may retry.
//! * **terminal** — the site fails forever (`times == None`), e.g. a dead
//!   device. Surfaced as [`ExecError::DeviceLost`] so callers give up and
//!   fall back to the host.
//! * **hang** — the call never completes. Surfaced as [`ExecError::Hang`];
//!   the host driver's watchdog converts it into a timeout and attempts
//!   reset-and-replay recovery.
//!
//! The compact plan syntax (the runner's config resolution also accepts it
//! from the `OMPI_FAULT_PLAN` environment variable; this crate never reads
//! the environment) is a comma-separated list of
//! `[devN:][hang@]site[@first[xCOUNT|x*]]`:
//!
//! ```text
//! launch@2x3        calls 2,3,4 to `launch` fail transiently
//! alloc@1x*         every alloc from the first on fails terminally
//! h2d@5             exactly call 5 to memcpy H2D fails transiently
//! launch@2x3,h2d@5  both of the above
//! dev1:launch@1x*   device 1's launches fail terminally; other devices
//!                   are untouched
//! hang@launch       the first launch hangs (watchdog timeout)
//! hang@h2d@2x2      H2D copies 2 and 3 hang
//! ```
//!
//! A plan of the form `chaos:<seed>` instead generates a seeded random —
//! but completion-safe — rule mix via [`FaultPlan::chaos`]; see the chaos
//! soak harness.
//!
//! In a multi-device registry each device materializes its own plan with
//! [`FaultPlan::parse_for_device`]: `devN:` rules apply only to device `N`,
//! unprefixed rules apply to the default device (device 0), keeping
//! single-device plans backward compatible.

use std::sync::atomic::{AtomicU64, Ordering};

use vmcommon::rng::XorShift64;

use crate::device::ExecError;

/// A fault-injectable call site in the device runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Device creation / first touch (cudadev lazy init).
    Init,
    /// `cuMemAlloc`.
    Alloc,
    /// `cuMemcpyHtoD`.
    H2D,
    /// `cuMemcpyDtoH`.
    D2H,
    /// `cuModuleLoad` (cubin load or PTX JIT).
    ModuleLoad,
    /// `cuLaunchKernel`.
    Launch,
    /// JIT disk-cache read: the cached artifact decodes as garbage.
    JitCache,
    /// Arena pressure: when fired, the device permanently reserves about
    /// half of its currently-free global memory, shrinking what later
    /// allocations can get (simulates a shared 2 GB board filling up
    /// mid-run). Never an error by itself — it only makes `alloc` harder.
    Arena,
    /// `cuMemFree`: the free is rejected as an invalid/double free.
    Free,
}

impl FaultSite {
    pub const ALL: [FaultSite; 9] = [
        FaultSite::Init,
        FaultSite::Alloc,
        FaultSite::H2D,
        FaultSite::D2H,
        FaultSite::ModuleLoad,
        FaultSite::Launch,
        FaultSite::JitCache,
        FaultSite::Arena,
        FaultSite::Free,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::Init => 0,
            FaultSite::Alloc => 1,
            FaultSite::H2D => 2,
            FaultSite::D2H => 3,
            FaultSite::ModuleLoad => 4,
            FaultSite::Launch => 5,
            FaultSite::JitCache => 6,
            FaultSite::Arena => 7,
            FaultSite::Free => 8,
        }
    }

    /// Plan-syntax name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Init => "init",
            FaultSite::Alloc => "alloc",
            FaultSite::H2D => "h2d",
            FaultSite::D2H => "d2h",
            FaultSite::ModuleLoad => "modload",
            FaultSite::Launch => "launch",
            FaultSite::JitCache => "jitcache",
            FaultSite::Arena => "arena",
            FaultSite::Free => "free",
        }
    }

    fn from_name(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.iter().copied().find(|f| f.name() == s)
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a firing rule does to the call: fail it with an error, or never
/// complete it (the host watchdog turns hangs into timeouts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultKind {
    #[default]
    Error,
    Hang,
}

/// One injection rule: calls `first .. first+times` (1-based, half-open in
/// count) to `site` fail. `times == None` means "forever" — a terminal
/// fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRule {
    pub site: FaultSite,
    /// 1-based call number at which faults begin.
    pub first: u64,
    /// How many consecutive calls fail; `None` = all subsequent calls.
    pub times: Option<u64>,
    /// Error out, or hang until the watchdog fires.
    pub kind: FaultKind,
}

impl FaultRule {
    /// Does this rule fire on call number `n` (1-based)?
    fn fires(&self, n: u64) -> bool {
        n >= self.first && self.times.is_none_or(|t| n < self.first + t)
    }

    /// Terminal rules never stop firing.
    pub fn is_terminal(&self) -> bool {
        self.times.is_none()
    }

    /// Hang rules stall the call instead of erroring it.
    pub fn is_hang(&self) -> bool {
        self.kind == FaultKind::Hang
    }
}

impl std::fmt::Display for FaultRule {
    /// The plan syntax this rule parses back from:
    /// `[hang@]site[@first[xN|x*]]` (a one-shot rule omits the `x1`, and a
    /// one-shot hang on the first call omits the whole `@first` spec,
    /// matching what `parse` accepts).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_hang() {
            f.write_str("hang@")?;
            if (self.first, self.times) == (1, Some(1)) {
                return write!(f, "{}", self.site);
            }
        }
        write!(f, "{}@{}", self.site, self.first)?;
        match self.times {
            Some(1) => Ok(()),
            Some(n) => write!(f, "x{n}"),
            None => write!(f, "x*"),
        }
    }
}

/// A malformed fault plan, with the offending part preserved so the
/// runner can surface a precise message instead of aborting mid-parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A `pre:` prefix that is not `devN:`.
    BadDevicePrefix { part: String, prefix: String },
    /// No `@` between the site name and the call number.
    MissingSeparator { part: String },
    /// A site name that is not in [`FaultSite::ALL`].
    UnknownSite { part: String, site: String },
    /// An `xN` repeat count that is not a number.
    BadRepeatCount { part: String, count: String },
    /// `x0`: a repeat count of zero.
    ZeroRepeatCount { part: String },
    /// An `@first` call number that is not a number.
    BadCallNumber { part: String, number: String },
    /// `@0`: call numbers are 1-based.
    ZeroCallNumber { part: String },
    /// Two rules for the same site on the same device.
    DuplicateRule { part: String, site: FaultSite, device: u32 },
    /// A `chaos:<seed>` plan whose seed is not an unsigned integer.
    BadChaosSeed { seed: String },
    /// A `chaos:<seed>` part mixed into a comma-separated rule list: chaos
    /// must be the entire plan, it cannot be combined with explicit rules.
    ChaosNotAlone { part: String },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::BadDevicePrefix { part, prefix } => {
                write!(f, "fault rule `{part}`: bad device prefix `{prefix}:` (expected `devN:`)")
            }
            FaultPlanError::MissingSeparator { part } => {
                write!(f, "fault rule `{part}`: expected `site@first[xN|x*]`")
            }
            FaultPlanError::UnknownSite { part, site } => {
                write!(f, "fault rule `{part}`: unknown site `{site}`")
            }
            FaultPlanError::BadRepeatCount { part, count } => {
                write!(f, "fault rule `{part}`: bad repeat count `{count}`")
            }
            FaultPlanError::ZeroRepeatCount { part } => {
                write!(f, "fault rule `{part}`: repeat count must be at least 1")
            }
            FaultPlanError::BadCallNumber { part, number } => {
                write!(f, "fault rule `{part}`: bad call number `{number}`")
            }
            FaultPlanError::ZeroCallNumber { part } => {
                write!(f, "fault rule `{part}`: call numbers are 1-based")
            }
            FaultPlanError::DuplicateRule { part, site, device } => {
                write!(
                    f,
                    "fault rule `{part}`: duplicate rule for site `{site}` on device {device}"
                )
            }
            FaultPlanError::BadChaosSeed { seed } => {
                write!(f, "fault plan `chaos:{seed}`: seed must be an unsigned integer")
            }
            FaultPlanError::ChaosNotAlone { part } => {
                write!(
                    f,
                    "fault plan part `{part}`: `chaos:<seed>` must be the whole plan, \
                     not one rule in a list"
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A deterministic fault plan: a rule list plus per-site call counters.
///
/// The plan is shared (`Arc`) between the test, the device and the driver
/// layer; counters are atomics so concurrent call sites still get unique
/// call numbers.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    counters: [AtomicU64; FaultSite::ALL.len()],
}

impl FaultPlan {
    /// Plan with an explicit rule list.
    pub fn new(rules: Vec<FaultRule>) -> FaultPlan {
        FaultPlan { rules, counters: Default::default() }
    }

    /// Parse the compact plan syntax (see module docs) for the default
    /// device: `devN:` rules other than `dev0:` are validated but dropped.
    pub fn parse(text: &str) -> Result<FaultPlan, FaultPlanError> {
        FaultPlan::parse_for_device(text, 0)
    }

    /// Parse the compact plan syntax, keeping only the rules that apply to
    /// device `dev`: rules prefixed `dev<N>:` apply to device `N`,
    /// unprefixed rules apply to the default device (device 0). Every part
    /// is validated even when it targets another device, so a typo never
    /// silently disables injection. A `chaos:<seed>` plan instead expands
    /// to [`FaultPlan::chaos`] for this device.
    pub fn parse_for_device(text: &str, dev: u32) -> Result<FaultPlan, FaultPlanError> {
        if let Some(seed) = text.trim().strip_prefix("chaos:") {
            let seed: u64 = seed
                .trim()
                .parse()
                .map_err(|_| FaultPlanError::BadChaosSeed { seed: seed.trim().into() })?;
            return Ok(FaultPlan::chaos(seed, dev));
        }
        let mut rules = Vec::new();
        let mut seen: Vec<(u32, FaultSite)> = Vec::new();
        for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            // A `chaos:` part inside a rule list used to fall through to
            // the `devN:` prefix parser and report a misleading "bad
            // device prefix `chaos:`" — name the real problem instead.
            if let Some(seed) = part.strip_prefix("chaos:") {
                let seed = seed.trim();
                if seed.parse::<u64>().is_err() {
                    return Err(FaultPlanError::BadChaosSeed { seed: seed.into() });
                }
                return Err(FaultPlanError::ChaosNotAlone { part: part.into() });
            }
            let (scope, rule) = parse_scoped_rule(part)?;
            // Two rules for the same (device, site) would race on one call
            // counter with no defined precedence — reject the plan.
            let key = (scope.unwrap_or(0), rule.site);
            if seen.contains(&key) {
                return Err(FaultPlanError::DuplicateRule {
                    part: part.into(),
                    site: rule.site,
                    device: key.0,
                });
            }
            seen.push(key);
            if key.0 == dev {
                rules.push(rule);
            }
        }
        Ok(FaultPlan::new(rules))
    }

    /// Whether the plan has no rules (it never injects anything).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// A seeded random — but *completion-safe* — plan for the chaos soak
    /// harness (`OMPI_FAULT_PLAN=chaos:<seed>`): 2–4 rules, at most one
    /// per site, drawn so that every run still completes with bit-exact
    /// results. Concretely:
    ///
    /// * transient windows stay within the default retry budget (≤ 3),
    /// * hang windows stay under the default reset budget (≤ 2 in a row),
    ///   so reset-and-replay recovers them,
    /// * terminal rules fire from call #1 only — the device never commits
    ///   partial work, so the whole app cleanly degrades to the host — and
    ///   never on `d2h`, whose mid-run loss could strand a partial commit
    ///   as a (deliberate) hard error,
    /// * arena-pressure rules only shrink memory, pushing runs down the
    ///   governor's degradation ladder.
    ///
    /// The device id is folded into the seed so a multi-device registry
    /// does not replay one device's plan on all of them.
    pub fn chaos(seed: u64, dev: u32) -> FaultPlan {
        let mut rng = XorShift64::new(seed ^ (dev as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let n_rules = 2 + rng.below(3);
        let mut rules: Vec<FaultRule> = Vec::new();
        for _ in 0..n_rules {
            let roll = rng.below(100);
            let (kind, site, first, times) = if roll < 40 {
                let site = [
                    FaultSite::Launch,
                    FaultSite::H2D,
                    FaultSite::D2H,
                    FaultSite::Alloc,
                    FaultSite::ModuleLoad,
                ];
                (FaultKind::Error, *rng.pick(&site), rng.range_u64(1, 7), Some(rng.range_u64(1, 4)))
            } else if roll < 70 {
                let site = [FaultSite::Launch, FaultSite::H2D, FaultSite::Alloc];
                (FaultKind::Hang, *rng.pick(&site), rng.range_u64(1, 5), Some(rng.range_u64(1, 3)))
            } else if roll < 85 {
                (FaultKind::Error, FaultSite::Arena, rng.range_u64(1, 4), Some(rng.range_u64(1, 3)))
            } else {
                let site = [FaultSite::Launch, FaultSite::H2D, FaultSite::Alloc, FaultSite::Init];
                (FaultKind::Error, *rng.pick(&site), 1, None)
            };
            if rules.iter().any(|r| r.site == site) {
                continue;
            }
            rules.push(FaultRule { site, first, times, kind });
        }
        FaultPlan::new(rules)
    }

    /// Record one call to `site` and return the injected error, if any.
    ///
    /// Increments the site's call counter regardless of outcome, so call
    /// numbering is stable whether or not faults fire.
    pub fn check(&self, site: FaultSite) -> Result<(), ExecError> {
        let n = self.counters[site.index()].fetch_add(1, Ordering::AcqRel) + 1;
        for rule in &self.rules {
            if rule.site == site && rule.fires(n) {
                if rule.is_hang() {
                    return Err(ExecError::Hang(format!("injected hang: {site} call #{n}")));
                }
                let msg = format!("injected fault: {site} call #{n}");
                return Err(if rule.is_terminal() {
                    ExecError::DeviceLost(msg)
                } else {
                    ExecError::Transient(msg)
                });
            }
        }
        Ok(())
    }

    /// Number of calls observed at `site` so far.
    pub fn calls(&self, site: FaultSite) -> u64 {
        self.counters[site.index()].load(Ordering::Acquire)
    }

    /// Does the plan contain a terminal rule for `site`?
    pub fn has_terminal(&self, site: FaultSite) -> bool {
        self.rules.iter().any(|r| r.site == site && r.is_terminal())
    }

    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }
}

impl std::fmt::Display for FaultPlan {
    /// The comma-separated plan syntax; `FaultPlan::parse` of the output
    /// reproduces the rule list (for a single-device plan).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{rule}")?;
        }
        Ok(())
    }
}

/// Parse one `[devN:][hang@]site[@first[xN|x*]]` part into its device
/// scope (`None` = unprefixed, i.e. the default device) and rule.
fn parse_scoped_rule(part: &str) -> Result<(Option<u32>, FaultRule), FaultPlanError> {
    let (scope, body) = match part.split_once(':') {
        Some((pre, rest)) => {
            let id = pre
                .trim()
                .strip_prefix("dev")
                .filter(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|n| n.parse::<u32>().ok())
                .ok_or_else(|| FaultPlanError::BadDevicePrefix {
                    part: part.into(),
                    prefix: pre.into(),
                })?;
            (Some(id), rest)
        }
        None => (None, part),
    };
    let (kind, body) = match body.trim().strip_prefix("hang@") {
        Some(rest) => (FaultKind::Hang, rest),
        None => (FaultKind::Error, body),
    };
    let (site, rest) = match body.split_once('@') {
        Some((site, rest)) => (site, Some(rest)),
        // A bare site is only valid for hangs: `hang@launch` means "the
        // first call hangs, once". Error rules keep requiring a spec.
        None if kind == FaultKind::Hang => (body, None),
        None => return Err(FaultPlanError::MissingSeparator { part: part.into() }),
    };
    let site = FaultSite::from_name(site.trim())
        .ok_or_else(|| FaultPlanError::UnknownSite { part: part.into(), site: site.into() })?;
    let Some(rest) = rest else {
        return Ok((scope, FaultRule { site, first: 1, times: Some(1), kind }));
    };
    let (first, times) = match rest.split_once('x') {
        None => (rest, Some(1)),
        Some((f, "*")) => (f, None),
        Some((f, n)) => {
            let n: u64 = n.trim().parse().map_err(|_| FaultPlanError::BadRepeatCount {
                part: part.into(),
                count: n.into(),
            })?;
            if n == 0 {
                return Err(FaultPlanError::ZeroRepeatCount { part: part.into() });
            }
            (f, Some(n))
        }
    };
    let first: u64 = first
        .trim()
        .parse()
        .map_err(|_| FaultPlanError::BadCallNumber { part: part.into(), number: first.into() })?;
    if first == 0 {
        return Err(FaultPlanError::ZeroCallNumber { part: part.into() });
    }
    Ok((scope, FaultRule { site, first, times, kind }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(site: FaultSite, first: u64, times: Option<u64>) -> FaultRule {
        FaultRule { site, first, times, kind: FaultKind::Error }
    }

    #[test]
    fn parse_compact_syntax() {
        let p = FaultPlan::parse("launch@2x3, alloc@1x*,h2d@5").unwrap();
        assert_eq!(
            p.rules(),
            &[
                rule(FaultSite::Launch, 2, Some(3)),
                rule(FaultSite::Alloc, 1, None),
                rule(FaultSite::H2D, 5, Some(1)),
            ]
        );
    }

    #[test]
    fn parse_hang_rules() {
        let p = FaultPlan::parse("hang@launch, hang@h2d@2x2, dev1:hang@alloc@3x*").unwrap();
        assert_eq!(
            p.rules(),
            &[
                FaultRule {
                    site: FaultSite::Launch,
                    first: 1,
                    times: Some(1),
                    kind: FaultKind::Hang
                },
                FaultRule { site: FaultSite::H2D, first: 2, times: Some(2), kind: FaultKind::Hang },
            ]
        );
        let p1 = FaultPlan::parse_for_device("dev1:hang@alloc@3x*", 1).unwrap();
        assert_eq!(
            p1.rules(),
            &[FaultRule { site: FaultSite::Alloc, first: 3, times: None, kind: FaultKind::Hang }]
        );
        // A bare site without a hang prefix still needs its `@first` spec.
        assert!(FaultPlan::parse("launch").is_err());
        assert!(FaultPlan::parse("hang@nosite").is_err());
        assert!(FaultPlan::parse("hang@launch@0").is_err());
    }

    #[test]
    fn hang_rules_surface_as_hang_errors() {
        let p = FaultPlan::parse("hang@launch@2").unwrap();
        assert!(p.check(FaultSite::Launch).is_ok());
        let e = p.check(FaultSite::Launch).unwrap_err();
        assert!(matches!(e, ExecError::Hang(_)), "expected a hang, got {e}");
        assert!(!e.is_transient(), "hangs are not retryable in place");
        assert!(e.is_terminal(), "hangs need watchdog intervention");
        assert!(p.check(FaultSite::Launch).is_ok(), "one-shot hang window closes");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("launch").is_err());
        assert!(FaultPlan::parse("nosite@1").is_err());
        assert!(FaultPlan::parse("launch@zero").is_err());
        assert!(FaultPlan::parse("launch@0").is_err(), "call numbers are 1-based");
        assert!(FaultPlan::parse("launch@1xbad").is_err());
        assert!(FaultPlan::parse("").unwrap().rules().is_empty());
    }

    #[test]
    fn parse_rejects_zero_repeat_count() {
        // `x0` used to be silently clamped to `x1`; it must be an error.
        let err = FaultPlan::parse("launch@1x0").unwrap_err();
        assert!(err.to_string().contains("repeat count"), "descriptive message, got: {err}");
        assert!(FaultPlan::parse("dev1:h2d@2x0").is_err(), "scoped rules validate too");
        assert!(FaultPlan::parse("launch@1x00").is_err());
    }

    #[test]
    fn parse_errors_are_descriptive() {
        // Each class of malformation names the offending part.
        for (bad, needle) in [
            ("nosite@1", "unknown site"),
            ("devz:launch@1", "device prefix"),
            ("launch@1x0", "repeat count"),
            ("launch@0", "1-based"),
            ("launch@", "call number"),
        ] {
            let err = FaultPlan::parse(bad).unwrap_err().to_string();
            assert!(err.contains(needle), "`{bad}` error should mention `{needle}`, got: {err}");
        }
    }

    /// The parse error is a typed value, not a bare string: callers can
    /// match on the malformation class and the offending part survives.
    #[test]
    fn parse_errors_are_typed() {
        assert_eq!(
            FaultPlan::parse("launch@").unwrap_err(),
            FaultPlanError::BadCallNumber { part: "launch@".into(), number: "".into() }
        );
        assert_eq!(
            FaultPlan::parse("launch@1xz").unwrap_err(),
            FaultPlanError::BadRepeatCount { part: "launch@1xz".into(), count: "z".into() }
        );
        assert_eq!(
            FaultPlan::parse("h2d@5, nosite@1").unwrap_err(),
            FaultPlanError::UnknownSite { part: "nosite@1".into(), site: "nosite".into() }
        );
        assert_eq!(
            FaultPlan::parse("launch@1, launch@2").unwrap_err(),
            FaultPlanError::DuplicateRule {
                part: "launch@2".into(),
                site: FaultSite::Launch,
                device: 0
            }
        );
        assert_eq!(
            FaultPlan::parse("chaos:pi").unwrap_err(),
            FaultPlanError::BadChaosSeed { seed: "pi".into() }
        );
    }

    /// A `chaos:` token buried in a rule list must name the chaos token,
    /// not pattern-match it as a `devN:` device prefix.
    #[test]
    fn chaos_token_in_rule_list_is_reported_as_chaos() {
        assert_eq!(
            FaultPlan::parse("launch@1,chaos:3").unwrap_err(),
            FaultPlanError::ChaosNotAlone { part: "chaos:3".into() }
        );
        // Malformed seed mid-list still reports the seed problem.
        assert_eq!(
            FaultPlan::parse("launch@1, chaos:pi").unwrap_err(),
            FaultPlanError::BadChaosSeed { seed: "pi".into() }
        );
        let msg = FaultPlan::parse("h2d@2,chaos:7,launch@1").unwrap_err().to_string();
        assert!(msg.contains("chaos:7") && msg.contains("whole plan"), "got: {msg}");
        assert!(!msg.contains("device prefix"), "must not misreport as devN:, got: {msg}");
    }

    /// Chaos plans are deterministic per (seed, device) and only contain
    /// completion-safe rules (see `FaultPlan::chaos`).
    #[test]
    fn chaos_plans_are_deterministic_and_safe() {
        for seed in 0..200u64 {
            let p = FaultPlan::chaos(seed, 0);
            let q = FaultPlan::parse_for_device(&format!("chaos:{seed}"), 0).unwrap();
            assert_eq!(p.rules(), q.rules(), "seed {seed}: parse must reproduce chaos()");
            assert!(!p.rules().is_empty(), "seed {seed}: at least one rule");
            assert!(p.rules().len() <= 4, "seed {seed}: at most four rules");
            for r in p.rules() {
                let sites: Vec<_> = p.rules().iter().filter(|o| o.site == r.site).collect();
                assert_eq!(sites.len(), 1, "seed {seed}: one rule per site");
                match (r.kind, r.times) {
                    (FaultKind::Hang, Some(t)) => assert!(t <= 2, "seed {seed}: hang window"),
                    (FaultKind::Hang, None) => panic!("seed {seed}: terminal hangs are unsafe"),
                    (FaultKind::Error, Some(t)) => {
                        assert!(t <= 3, "seed {seed}: transient window exceeds retry budget")
                    }
                    (FaultKind::Error, None) => {
                        assert_eq!(r.first, 1, "seed {seed}: terminal rules fire from call #1");
                        assert_ne!(
                            r.site,
                            FaultSite::D2H,
                            "seed {seed}: terminal d2h strands partial commits"
                        );
                    }
                }
            }
        }
        // Distinct devices get distinct plans for the same seed (usually).
        let differs =
            (0..32u64).any(|s| FaultPlan::chaos(s, 0).rules() != FaultPlan::chaos(s, 1).rules());
        assert!(differs, "device id must be folded into the chaos seed");
    }

    #[test]
    fn memory_sites_parse() {
        let p = FaultPlan::parse("arena@2,free@1x*").unwrap();
        assert_eq!(
            p.rules(),
            &[rule(FaultSite::Arena, 2, Some(1)), rule(FaultSite::Free, 1, None)]
        );
        assert!(p.check(FaultSite::Arena).is_ok());
        assert!(p.check(FaultSite::Arena).is_err());
        assert!(p.check(FaultSite::Free).is_err());
    }

    #[test]
    fn transient_window_fires_exactly() {
        let p = FaultPlan::parse("launch@2x3").unwrap();
        let mut outcomes = Vec::new();
        for _ in 0..6 {
            outcomes.push(p.check(FaultSite::Launch).is_err());
        }
        assert_eq!(outcomes, [false, true, true, true, false, false]);
        assert!(matches!(
            FaultPlan::parse("launch@1").unwrap().check(FaultSite::Launch),
            Err(ExecError::Transient(_))
        ));
    }

    #[test]
    fn terminal_rule_fires_forever() {
        let p = FaultPlan::parse("alloc@3x*").unwrap();
        assert!(p.check(FaultSite::Alloc).is_ok());
        assert!(p.check(FaultSite::Alloc).is_ok());
        for _ in 0..10 {
            assert!(matches!(p.check(FaultSite::Alloc), Err(ExecError::DeviceLost(_))));
        }
        assert!(p.has_terminal(FaultSite::Alloc));
        assert!(!p.has_terminal(FaultSite::Launch));
    }

    #[test]
    fn device_prefix_scopes_rules() {
        // Unprefixed rules belong to the default device (0); dev1: rules
        // only materialize in device 1's plan.
        let text = "launch@2x3, dev1:alloc@1x*, dev0:h2d@5";
        let p0 = FaultPlan::parse_for_device(text, 0).unwrap();
        assert_eq!(
            p0.rules(),
            &[rule(FaultSite::Launch, 2, Some(3)), rule(FaultSite::H2D, 5, Some(1))]
        );
        let p1 = FaultPlan::parse_for_device(text, 1).unwrap();
        assert_eq!(p1.rules(), &[rule(FaultSite::Alloc, 1, None)]);
        assert!(FaultPlan::parse_for_device(text, 2).unwrap().rules().is_empty());
        // `parse` keeps its historical meaning: the default device's view.
        assert_eq!(FaultPlan::parse(text).unwrap().rules(), p0.rules());
    }

    #[test]
    fn malformed_device_prefixes_are_rejected() {
        for bad in
            ["dev:launch@1", "devx:launch@1", "device1:launch@1", "1:launch@1", "dev-1:launch@1"]
        {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        // A rule scoped to another device is still validated.
        assert!(FaultPlan::parse_for_device("dev1:nosite@1", 0).is_err());
        assert!(FaultPlan::parse_for_device("dev1:launch@0", 0).is_err());
        // Leading zeros and whitespace around the prefix are tolerated.
        assert_eq!(FaultPlan::parse_for_device("dev01:launch@1", 1).unwrap().rules().len(), 1);
        assert_eq!(FaultPlan::parse_for_device(" dev2:launch@1 ", 2).unwrap().rules().len(), 1);
    }

    #[test]
    fn duplicate_site_rules_are_rejected() {
        // Same site twice on the same device: rejected no matter how the
        // duplicate is spelled (unprefixed = dev0).
        assert!(FaultPlan::parse("launch@1,launch@5x2").is_err());
        assert!(FaultPlan::parse("launch@1,dev0:launch@5").is_err());
        assert!(
            FaultPlan::parse_for_device("dev1:h2d@1,dev1:h2d@2", 0).is_err(),
            "duplicates are rejected even when scoped to another device"
        );
        // Same site on *different* devices is fine.
        let ok = "dev0:launch@1,dev1:launch@1";
        assert_eq!(FaultPlan::parse_for_device(ok, 0).unwrap().rules().len(), 1);
        assert_eq!(FaultPlan::parse_for_device(ok, 1).unwrap().rules().len(), 1);
        // Different sites on one device are fine too.
        assert!(FaultPlan::parse("launch@1,h2d@1").is_ok());
    }

    #[test]
    fn malformed_site_separator_is_rejected() {
        // `devX@...` — a device prefix without `:` is not a site name.
        assert!(FaultPlan::parse("dev0@1").is_err());
        assert!(FaultPlan::parse("dev1@1x2").is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for text in [
            "launch@2x3",
            "alloc@1x*",
            "h2d@5",
            "launch@2x3,alloc@1x*,h2d@5",
            "hang@launch",
            "hang@h2d@2x2",
            "hang@alloc@1x2,launch@3",
        ] {
            let plan = FaultPlan::parse(text).unwrap();
            assert_eq!(plan.to_string(), text, "Display is the canonical spelling");
            let back = FaultPlan::parse(&plan.to_string()).unwrap();
            assert_eq!(back.rules(), plan.rules(), "parse(Display) round-trips");
        }
        // Non-canonical spellings normalize: x1 is dropped, whitespace goes.
        let plan = FaultPlan::parse(" launch@4x1 , d2h@2x2 ").unwrap();
        assert_eq!(plan.to_string(), "launch@4,d2h@2x2");
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap().rules(), plan.rules());
    }

    #[test]
    fn sites_count_independently() {
        let p = FaultPlan::parse("h2d@1x1").unwrap();
        assert!(p.check(FaultSite::D2H).is_ok());
        assert!(p.check(FaultSite::H2D).is_err());
        assert!(p.check(FaultSite::H2D).is_ok());
        assert_eq!(p.calls(FaultSite::H2D), 2);
        assert_eq!(p.calls(FaultSite::D2H), 1);
        assert_eq!(p.calls(FaultSite::Launch), 0);
    }
}
