//! The protocol registry: construct any [`IncentiveProtocol`] from a
//! `(name, params)` description.
//!
//! Every protocol and adapter in this crate registers here, so sweep
//! harnesses (and user-authored `.scn` spec files) can name protocols as
//! *data* instead of linking against concrete types. Adapters compose:
//! `adversary(inner = pow(w = 0.01), strategy = selfish-mining(gamma =
//! 0.5))` builds `Adversary<Pow, SelfishMining>` behind a type-erased
//! [`BoxedProtocol`].
//!
//! Construction is **fingerprint-transparent**: a [`BoxedProtocol`]
//! delegates `name()`, `params()` and `rewards_compound()` to the wrapped
//! value, so a registry-built protocol produces byte-for-byte the same
//! memoization keys and content-derived seeds as the hand-constructed
//! equivalent (pinned by `tests/fingerprints.rs`).

use crate::adversary::{
    Adversary, ForkAction, ForkEvent, ForkState, Honest, SelfishMining, StakeGrinding, Strategy,
};
use crate::mdp::{BestResponse, EquilibriumConfig, OptimalWithholding};
use crate::protocol::{IncentiveProtocol, StepOutcome};
use crate::protocols::{Algorand, CPos, Eos, FslPos, MlPos, Neo, Pow, SlPos};
use crate::redistribution::{Alleviation, ClusterTax, FeeLottery, Sybil, SybilSplit};
use crate::scenario::{ArgValue, ProtocolSpec};
use crate::strategies::{CashOut, MiningPool};
use fairness_stats::rng::Xoshiro256StarStar;
use std::fmt;

// ---------------------------------------------------------------------------
// Type-erased, clonable protocol and strategy handles.
// ---------------------------------------------------------------------------

/// Object-safe cloning shim (the classic `clone_box` pattern): lets a
/// boxed protocol be cloned into each Monte-Carlo repetition's game,
/// state included (a stateful adapter like [`Adversary`] carries its fork
/// state along).
trait CloneProtocol: IncentiveProtocol {
    fn clone_box(&self) -> Box<dyn CloneProtocol>;
}

impl<P: IncentiveProtocol + Clone + 'static> CloneProtocol for P {
    fn clone_box(&self) -> Box<dyn CloneProtocol> {
        Box::new(self.clone())
    }
}

/// A clonable, type-erased [`IncentiveProtocol`] — what
/// [`construct`] returns. Transparent: every trait method delegates to the
/// wrapped protocol, so labels, parameter fingerprints and step
/// distributions are exactly the wrapped value's.
pub struct BoxedProtocol(Box<dyn CloneProtocol>);

impl BoxedProtocol {
    /// Wraps a concrete protocol value.
    #[must_use]
    pub fn new<P: IncentiveProtocol + Clone + 'static>(protocol: P) -> Self {
        Self(Box::new(protocol))
    }
}

impl Clone for BoxedProtocol {
    fn clone(&self) -> Self {
        Self(self.0.clone_box())
    }
}

impl fmt::Debug for BoxedProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BoxedProtocol({})", self.0.label())
    }
}

impl IncentiveProtocol for BoxedProtocol {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn label(&self) -> String {
        self.0.label()
    }

    fn reward_per_step(&self) -> f64 {
        self.0.reward_per_step()
    }

    fn rewards_compound(&self) -> bool {
        self.0.rewards_compound()
    }

    fn params(&self) -> Vec<f64> {
        self.0.params()
    }

    #[inline]
    fn step_into(
        &mut self,
        stakes: &[f64],
        step_index: u64,
        rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    ) {
        self.0.step_into(stakes, step_index, rng, out);
    }

    fn slpos_core_reward(&self) -> Option<f64> {
        self.0.slpos_core_reward()
    }
}

/// Object-safe cloning shim for strategies, mirroring [`CloneProtocol`].
trait CloneStrategy: Strategy {
    fn clone_box(&self) -> Box<dyn CloneStrategy>;
}

impl<S: Strategy + Clone + 'static> CloneStrategy for S {
    fn clone_box(&self) -> Box<dyn CloneStrategy> {
        Box::new(self.clone())
    }
}

/// A clonable, type-erased [`Strategy`], used as the `S` of a
/// registry-built [`Adversary`].
pub struct BoxedStrategy(Box<dyn CloneStrategy>);

impl BoxedStrategy {
    /// Wraps a concrete strategy value.
    #[must_use]
    pub fn new<S: Strategy + Clone + 'static>(strategy: S) -> Self {
        Self(Box::new(strategy))
    }
}

impl Clone for BoxedStrategy {
    fn clone(&self) -> Self {
        Self(self.0.clone_box())
    }
}

impl fmt::Debug for BoxedStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BoxedStrategy({})", self.0.name())
    }
}

impl Strategy for BoxedStrategy {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn decide(&self, state: ForkState, event: ForkEvent) -> ForkAction {
        self.0.decide(state, event)
    }

    fn gamma(&self) -> f64 {
        self.0.gamma()
    }

    fn grinding_tries(&self) -> u32 {
        self.0.grinding_tries()
    }

    fn sybil_identities(&self) -> u32 {
        self.0.sybil_identities()
    }

    fn params(&self) -> Vec<f64> {
        self.0.params()
    }
}

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// Why a [`ProtocolSpec`] could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The spec names a protocol that is not registered.
    UnknownProtocol(String),
    /// An `adversary` spec names a strategy that is not registered.
    UnknownStrategy(String),
    /// A required parameter is absent.
    MissingParam {
        /// Protocol or strategy being constructed.
        name: String,
        /// The absent parameter.
        key: String,
    },
    /// The spec passes a parameter the entry does not declare.
    UnknownParam {
        /// Protocol or strategy being constructed.
        name: String,
        /// The undeclared parameter.
        key: String,
    },
    /// The spec passes the same parameter more than once. Constructors
    /// read the *first* occurrence, so silently accepting duplicates would
    /// both mislead the author and print a form the `.scn` parser rejects.
    DuplicateParam {
        /// Protocol or strategy being constructed.
        name: String,
        /// The repeated parameter.
        key: String,
    },
    /// A parameter has the wrong shape or an out-of-domain value.
    BadParam {
        /// Protocol or strategy being constructed.
        name: String,
        /// The offending parameter.
        key: String,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownProtocol(name) => {
                write!(f, "unknown protocol `{name}` (see `repro list-protocols`)")
            }
            RegistryError::UnknownStrategy(name) => {
                write!(f, "unknown strategy `{name}` (see `repro list-protocols`)")
            }
            RegistryError::MissingParam { name, key } => {
                write!(f, "`{name}` needs the parameter `{key}`")
            }
            RegistryError::UnknownParam { name, key } => {
                write!(f, "`{name}` takes no parameter `{key}`")
            }
            RegistryError::DuplicateParam { name, key } => {
                write!(f, "`{name}` parameter `{key}` is given more than once")
            }
            RegistryError::BadParam { name, key, message } => {
                write!(f, "`{name}` parameter `{key}`: {message}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

// ---------------------------------------------------------------------------
// Entry metadata.
// ---------------------------------------------------------------------------

/// What shape a declared parameter takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// A scalar (`w = 0.01`).
    Number,
    /// A list of scalars (`members = [0, 1]`).
    List,
    /// A nested protocol/strategy spec (`inner = ml-pos(w = 0.01)`).
    Spec,
}

/// One declared parameter of a registry entry.
#[derive(Debug, Clone, Copy)]
pub struct ParamInfo {
    /// Parameter key as written in specs.
    pub key: &'static str,
    /// Expected shape.
    pub kind: ParamKind,
    /// Default value for optional numeric parameters; `None` plus
    /// [`required`](Self::required)` == false` means the default is
    /// context-dependent (documented in [`doc`](Self::doc)).
    pub default: Option<f64>,
    /// Whether the spec must provide the parameter.
    pub required: bool,
    /// One-line description for `list-protocols`.
    pub doc: &'static str,
}

const fn num(key: &'static str, default: f64, doc: &'static str) -> ParamInfo {
    ParamInfo {
        key,
        kind: ParamKind::Number,
        default: Some(default),
        required: false,
        doc,
    }
}

const fn required(key: &'static str, kind: ParamKind, doc: &'static str) -> ParamInfo {
    ParamInfo {
        key,
        kind,
        default: None,
        required: true,
        doc,
    }
}

type Construct = fn(&Args<'_>, &[f64]) -> Result<BoxedProtocol, RegistryError>;

/// What one step of a registry entry's protocol pays out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Payout {
    /// The whole step reward, to one winner.
    Winner,
    /// Whatever its `inner` protocol pays (a pass-through adapter).
    Inner,
    /// Parts of the step reward, to several miners.
    Split,
}

/// A registered protocol (or adapter).
pub struct ProtocolEntry {
    /// Spec-facing name (`pow`, `ml-pos`, `adversary`, …).
    pub name: &'static str,
    /// One-line description for `list-protocols`.
    pub summary: &'static str,
    /// Declared parameters; construction rejects undeclared keys.
    pub params: &'static [ParamInfo],
    payout: Payout,
    construct: Construct,
    /// A canonical example spec — used by `list-protocols` and pinned by
    /// the fingerprint snapshot test, so every entry is provably
    /// constructible.
    example: fn() -> ProtocolSpec,
}

impl fmt::Debug for ProtocolEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolEntry")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl ProtocolEntry {
    /// The entry's canonical example spec (constructible by definition).
    #[must_use]
    pub fn example(&self) -> ProtocolSpec {
        (self.example)()
    }

    /// Renders the signature for listings: `name(key = default, ...)`.
    #[must_use]
    pub fn signature(&self) -> String {
        if self.params.is_empty() {
            return self.name.to_owned();
        }
        let params: Vec<String> = self
            .params
            .iter()
            .map(|p| match (p.kind, p.default) {
                (ParamKind::Number, Some(default)) => format!("{} = {default}", p.key),
                (ParamKind::Number, None) => p.key.to_owned(),
                (ParamKind::List, _) => format!("{} = [..]", p.key),
                (ParamKind::Spec, _) => format!("{} = <spec>", p.key),
            })
            .collect();
        format!("{}({})", self.name, params.join(", "))
    }
}

/// A registered adversary strategy (the `strategy = ...` of `adversary`).
pub struct StrategyEntry {
    /// Spec-facing name (`honest`, `selfish-mining`, `stake-grinding`).
    pub name: &'static str,
    /// One-line description for `list-protocols`.
    pub summary: &'static str,
    /// Declared parameters.
    pub params: &'static [ParamInfo],
    construct: fn(&Args<'_>) -> Result<BoxedStrategy, RegistryError>,
}

impl fmt::Debug for StrategyEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StrategyEntry")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl StrategyEntry {
    /// Renders the signature for listings, mirroring
    /// [`ProtocolEntry::signature`].
    #[must_use]
    pub fn signature(&self) -> String {
        if self.params.is_empty() {
            return self.name.to_owned();
        }
        let params: Vec<String> = self
            .params
            .iter()
            .map(|p| match p.default {
                Some(default) => format!("{} = {default}", p.key),
                None => p.key.to_owned(),
            })
            .collect();
        format!("{}({})", self.name, params.join(", "))
    }
}

// ---------------------------------------------------------------------------
// Parameter resolution.
// ---------------------------------------------------------------------------

/// A spec checked against an entry's declared parameters.
struct Args<'a> {
    name: &'a str,
    spec: &'a ProtocolSpec,
    declared: &'static [ParamInfo],
}

impl<'a> Args<'a> {
    fn check(
        name: &'a str,
        spec: &'a ProtocolSpec,
        declared: &'static [ParamInfo],
    ) -> Result<Self, RegistryError> {
        for (i, (key, _)) in spec.args.iter().enumerate() {
            if !declared.iter().any(|p| p.key == key) {
                return Err(RegistryError::UnknownParam {
                    name: name.to_owned(),
                    key: key.clone(),
                });
            }
            if spec.args[..i].iter().any(|(k, _)| k == key) {
                return Err(RegistryError::DuplicateParam {
                    name: name.to_owned(),
                    key: key.clone(),
                });
            }
        }
        for p in declared {
            if p.required && spec.get(p.key).is_none() {
                return Err(RegistryError::MissingParam {
                    name: name.to_owned(),
                    key: p.key.to_owned(),
                });
            }
        }
        Ok(Self {
            name,
            spec,
            declared,
        })
    }

    fn bad(&self, key: &str, message: impl Into<String>) -> RegistryError {
        RegistryError::BadParam {
            name: self.name.to_owned(),
            key: key.to_owned(),
            message: message.into(),
        }
    }

    /// A scalar parameter, falling back to the declared default.
    fn number(&self, key: &str) -> Result<f64, RegistryError> {
        match self.spec.get(key) {
            Some(ArgValue::Number(v)) => Ok(*v),
            Some(_) => Err(self.bad(key, "expected a number")),
            None => self
                .declared
                .iter()
                .find(|p| p.key == key)
                .and_then(|p| p.default)
                .ok_or_else(|| RegistryError::MissingParam {
                    name: self.name.to_owned(),
                    key: key.to_owned(),
                }),
        }
    }

    /// A scalar parameter with no static default (`None` when absent).
    fn optional_number(&self, key: &str) -> Result<Option<f64>, RegistryError> {
        match self.spec.get(key) {
            Some(ArgValue::Number(v)) => Ok(Some(*v)),
            Some(_) => Err(self.bad(key, "expected a number")),
            None => Ok(None),
        }
    }

    /// A positive, finite scalar.
    fn positive(&self, key: &str) -> Result<f64, RegistryError> {
        let v = self.number(key)?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(self.bad(key, format!("must be positive and finite, got {v}")))
        }
    }

    /// A finite scalar `>= 0`.
    fn non_negative(&self, key: &str) -> Result<f64, RegistryError> {
        let v = self.number(key)?;
        if v.is_finite() && v >= 0.0 {
            Ok(v)
        } else {
            Err(self.bad(key, format!("must be non-negative and finite, got {v}")))
        }
    }

    /// A scalar that must be a non-negative integer.
    fn index(&self, key: &str) -> Result<usize, RegistryError> {
        let v = self.number(key)?;
        if v.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&v) {
            Ok(v as usize)
        } else {
            Err(self.bad(key, format!("must be a non-negative integer, got {v}")))
        }
    }

    /// A list parameter.
    fn list(&self, key: &str) -> Result<&'a [f64], RegistryError> {
        match self.spec.get(key) {
            Some(ArgValue::List(vs)) => Ok(vs),
            Some(_) => Err(self.bad(key, "expected a list like [0, 1]")),
            None => Err(RegistryError::MissingParam {
                name: self.name.to_owned(),
                key: key.to_owned(),
            }),
        }
    }

    /// A nested-spec parameter.
    fn spec(&self, key: &str) -> Result<&'a ProtocolSpec, RegistryError> {
        match self.spec.get(key) {
            Some(ArgValue::Spec(spec)) => Ok(spec),
            Some(_) => Err(self.bad(key, "expected a nested spec like ml-pos(w = 0.01)")),
            None => Err(RegistryError::MissingParam {
                name: self.name.to_owned(),
                key: key.to_owned(),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// The registry itself.
// ---------------------------------------------------------------------------

const W_DOC: &str = "block/proposer reward per step (fraction of total initial stake)";
const INNER_DOC: &str = "the wrapped protocol, e.g. inner = ml-pos(w = 0.01)";

static PROTOCOLS: &[ProtocolEntry] = &[
    ProtocolEntry {
        name: "pow",
        summary: "Proof-of-Work: winners drawn by fixed hash power (= the scenario's initial shares); rewards never compound",
        params: &[num("w", 0.01, W_DOC)],
        payout: Payout::Winner,
        construct: |args, shares| Ok(BoxedProtocol::new(Pow::new(shares, args.positive("w")?))),
        example: || ProtocolSpec::new("pow").with("w", 0.01),
    },
    ProtocolEntry {
        name: "ml-pos",
        summary: "multi-lottery PoS: winner proportional to current stake, rewards compound (Qtum/Blackcoin)",
        params: &[num("w", 0.01, W_DOC)],
        payout: Payout::Winner,
        construct: |args, _| Ok(BoxedProtocol::new(MlPos::new(args.positive("w")?))),
        example: || ProtocolSpec::new("ml-pos").with("w", 0.01),
    },
    ProtocolEntry {
        name: "sl-pos",
        summary: "single-lottery PoS: one seeded lottery per block, the rich monopolize (NXT)",
        params: &[num("w", 0.01, W_DOC)],
        payout: Payout::Winner,
        construct: |args, _| Ok(BoxedProtocol::new(SlPos::new(args.positive("w")?))),
        example: || ProtocolSpec::new("sl-pos").with("w", 0.01),
    },
    ProtocolEntry {
        name: "fsl-pos",
        summary: "fair single-lottery PoS: the paper's Section 6.2 time-function treatment of SL-PoS",
        params: &[num("w", 0.01, W_DOC)],
        payout: Payout::Winner,
        construct: |args, _| Ok(BoxedProtocol::new(FslPos::new(args.positive("w")?))),
        example: || ProtocolSpec::new("fsl-pos").with("w", 0.01),
    },
    ProtocolEntry {
        name: "c-pos",
        summary: "compound PoS: sharded proposer lottery plus proportional inflation (Ethereum 2.0)",
        params: &[
            num("w", 0.01, "proposer reward per epoch"),
            num("v", 0.1, "inflation (attester) reward per epoch"),
            num("shards", 1.0, "shard count P (the paper's figures use an effective P = 1)"),
        ],
        payout: Payout::Split,
        construct: |args, _| {
            let shards = args.index("shards")?;
            if shards == 0 || shards > u32::MAX as usize {
                return Err(args.bad("shards", "must be a positive integer"));
            }
            Ok(BoxedProtocol::new(CPos::new(
                args.positive("w")?,
                args.non_negative("v")?,
                shards as u32,
            )))
        },
        example: || {
            ProtocolSpec::new("c-pos")
                .with("w", 0.01)
                .with("v", 0.1)
                .with("shards", 32.0)
        },
    },
    ProtocolEntry {
        name: "neo",
        summary: "NEO-style PoS: winners by fixed voting shares, rewards paid in a separate (non-compounding) asset",
        params: &[num("w", 0.01, W_DOC)],
        payout: Payout::Winner,
        construct: |args, shares| Ok(BoxedProtocol::new(Neo::new(shares, args.positive("w")?))),
        example: || ProtocolSpec::new("neo").with("w", 0.01),
    },
    ProtocolEntry {
        name: "algorand",
        summary: "Algorand-style inflation-only rewards: every miner paid proportionally each step (absolutely fair)",
        params: &[num("v", 0.1, "inflation per step")],
        payout: Payout::Split,
        construct: |args, _| Ok(BoxedProtocol::new(Algorand::new(args.positive("v")?))),
        example: || ProtocolSpec::new("algorand").with("v", 0.1),
    },
    ProtocolEntry {
        name: "eos",
        summary: "EOS-style: equal proposer pay plus proportional inflation (expectationally unfair)",
        params: &[
            num("w", 0.01, "proposer budget per round"),
            num("v", 0.1, "inflation budget per round"),
        ],
        payout: Payout::Split,
        construct: |args, _| {
            Ok(BoxedProtocol::new(Eos::new(
                args.positive("w")?,
                args.non_negative("v")?,
            )))
        },
        example: || ProtocolSpec::new("eos").with("w", 0.01).with("v", 0.1),
    },
    ProtocolEntry {
        name: "cash-out",
        summary: "adapter: the designated miner withdraws every reward, freezing her staking power (drops Assumption 4)",
        params: &[
            required("inner", ParamKind::Spec, INNER_DOC),
            num("miner", 0.0, "index of the withdrawing miner"),
            ParamInfo {
                key: "stake",
                kind: ParamKind::Number,
                default: None,
                required: false,
                doc: "her frozen staking power (default: her initial share)",
            },
        ],
        payout: Payout::Inner,
        construct: |args, shares| {
            let inner = construct(args.spec("inner")?, shares)?;
            let miner = args.index("miner")?;
            if miner >= shares.len() {
                return Err(args.bad(
                    "miner",
                    format!("index {miner} out of range for {} miners", shares.len()),
                ));
            }
            let stake = match args.optional_number("stake")? {
                Some(v) if v.is_finite() && v >= 0.0 => v,
                Some(v) => {
                    return Err(args.bad("stake", format!("must be non-negative and finite, got {v}")))
                }
                None => {
                    let total: f64 = shares.iter().sum();
                    shares[miner] / total
                }
            };
            Ok(BoxedProtocol::new(CashOut::new(inner, miner, stake)))
        },
        example: || {
            ProtocolSpec::new("cash-out")
                .with("inner", ProtocolSpec::new("ml-pos").with("w", 0.01))
                .with("miner", 0.0)
                .with("stake", 0.2)
        },
    },
    ProtocolEntry {
        name: "mining-pool",
        summary: "adapter: the listed miners pool their staking power and split every win proportionally (Section 6.5)",
        params: &[
            required("inner", ParamKind::Spec, INNER_DOC),
            required("members", ParamKind::List, "pool member indices, e.g. members = [0, 1]"),
        ],
        payout: Payout::Split,
        construct: |args, shares| {
            let inner = construct(args.spec("inner")?, shares)?;
            let raw = args.list("members")?;
            let mut members = Vec::with_capacity(raw.len());
            for &v in raw {
                if v.fract() != 0.0 || v < 0.0 || v >= shares.len() as f64 {
                    return Err(args.bad(
                        "members",
                        format!("`{v}` is not a miner index below {}", shares.len()),
                    ));
                }
                members.push(v as usize);
            }
            let mut distinct = members.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() < 2 {
                return Err(args.bad("members", "a pool needs at least two distinct members"));
            }
            Ok(BoxedProtocol::new(MiningPool::new(inner, members)))
        },
        example: || {
            ProtocolSpec::new("mining-pool")
                .with("inner", ProtocolSpec::new("ml-pos").with("w", 0.01))
                .with("members", vec![0.0, 1.0])
        },
    },
    ProtocolEntry {
        name: "adversary",
        summary: "adapter: miner 0 plays a fork-aware strategy (withholding / grinding) over a single-winner protocol",
        params: &[
            required("inner", ParamKind::Spec, INNER_DOC),
            required(
                "strategy",
                ParamKind::Spec,
                "honest | selfish-mining(gamma) | stake-grinding(tries)",
            ),
        ],
        payout: Payout::Winner,
        construct: |args, shares| {
            let inner_spec = args.spec("inner")?;
            let inner = construct(inner_spec, shares)?;
            if !pays_one_winner(inner_spec) {
                return Err(args.bad(
                    "inner",
                    format!(
                        "`{}` splits step rewards, but a fork needs one winner per block \
                         (pow, ml-pos, sl-pos, fsl-pos, neo, adversary, or cash-out over one of them)",
                        inner_spec.name
                    ),
                ));
            }
            let strategy = construct_strategy(args.spec("strategy")?)?;
            Ok(BoxedProtocol::new(Adversary::new(inner, strategy)))
        },
        example: || {
            ProtocolSpec::new("adversary")
                .with("inner", ProtocolSpec::new("pow").with("w", 0.01))
                .with(
                    "strategy",
                    ProtocolSpec::new("selfish-mining").with("gamma", 0.5),
                )
        },
    },
    ProtocolEntry {
        name: "cluster-tax",
        summary: "adapter: progressive fee on step rewards — rate grows with the recipient's wealth cluster, proceeds rebated equally",
        params: &[
            required("inner", ParamKind::Spec, INNER_DOC),
            num("strength", 0.5, "top tax rate in [0, 1] paid by the richest cluster"),
            num("decay", 0.0, "per-step decay in [0, 1] of the initial cluster tags toward current shares"),
        ],
        payout: Payout::Split,
        construct: |args, shares| {
            let inner = construct(args.spec("inner")?, shares)?;
            let strength = args.number("strength")?;
            if !(0.0..=1.0).contains(&strength) {
                return Err(args.bad("strength", format!("must be in [0, 1], got {strength}")));
            }
            let decay = args.number("decay")?;
            if !(0.0..=1.0).contains(&decay) {
                return Err(args.bad("decay", format!("must be in [0, 1], got {decay}")));
            }
            Ok(BoxedProtocol::new(ClusterTax::new(
                inner, strength, decay, shares,
            )))
        },
        example: || {
            ProtocolSpec::new("cluster-tax")
                .with("inner", ProtocolSpec::new("sl-pos").with("w", 0.01))
                .with("strength", 0.5)
                .with("decay", 0.05)
        },
    },
    ProtocolEntry {
        name: "fee-lottery",
        summary: "adapter: a flat fee on every reward funds one rebate-lottery winner per step (uniform or value-weighted)",
        params: &[
            required("inner", ParamKind::Spec, INNER_DOC),
            num("fee", 0.5, "fee rate in [0, 1] levied on every step reward"),
            num("weighted", 0.0, "1 = value-weighted (stake-proportional) rebate draw, 0 = uniform"),
        ],
        payout: Payout::Split,
        construct: |args, shares| {
            let inner = construct(args.spec("inner")?, shares)?;
            let fee = args.number("fee")?;
            if !(0.0..=1.0).contains(&fee) {
                return Err(args.bad("fee", format!("must be in [0, 1], got {fee}")));
            }
            let flag = args.number("weighted")?;
            let weighted = if flag == 0.0 {
                false
            } else if flag == 1.0 {
                true
            } else {
                return Err(args.bad("weighted", format!("must be 0 or 1, got {flag}")));
            };
            Ok(BoxedProtocol::new(FeeLottery::new(inner, fee, weighted)))
        },
        example: || {
            ProtocolSpec::new("fee-lottery")
                .with("inner", ProtocolSpec::new("ml-pos").with("w", 0.01))
                .with("fee", 0.5)
                .with("weighted", 0.0)
        },
    },
    ProtocolEntry {
        name: "alleviation",
        summary: "adapter: Naderi-style compounding alleviation — a recipient keeps (1 − share)^beta of her reward, the rest is rebated equally",
        params: &[
            required("inner", ParamKind::Spec, INNER_DOC),
            num("beta", 2.0, "discount exponent >= 0 (0 = no-op)"),
        ],
        payout: Payout::Split,
        construct: |args, shares| {
            let inner = construct(args.spec("inner")?, shares)?;
            Ok(BoxedProtocol::new(Alleviation::new(
                inner,
                args.non_negative("beta")?,
            )))
        },
        example: || {
            ProtocolSpec::new("alleviation")
                .with("inner", ProtocolSpec::new("ml-pos").with("w", 0.01))
                .with("beta", 2.0)
        },
    },
    ProtocolEntry {
        name: "sybil",
        summary: "adapter: miner 0 splits her stake across the strategy's identity count to exploit cluster-sensitive redistribution",
        params: &[
            required("inner", ParamKind::Spec, INNER_DOC),
            required(
                "strategy",
                ParamKind::Spec,
                "sybil-split(identities) | honest",
            ),
        ],
        payout: Payout::Split,
        construct: |args, shares| {
            let inner = construct(args.spec("inner")?, shares)?;
            let strategy = construct_strategy(args.spec("strategy")?)?;
            Ok(BoxedProtocol::new(Sybil::new(inner, strategy)))
        },
        example: || {
            ProtocolSpec::new("sybil")
                .with(
                    "inner",
                    ProtocolSpec::new("fee-lottery")
                        .with("inner", ProtocolSpec::new("ml-pos").with("w", 0.01))
                        .with("fee", 0.5)
                        .with("weighted", 0.0),
                )
                .with(
                    "strategy",
                    ProtocolSpec::new("sybil-split").with("identities", 10.0),
                )
        },
    },
];

static STRATEGIES: &[StrategyEntry] = &[
    StrategyEntry {
        name: "honest",
        summary: "publish every block immediately (the null strategy)",
        params: &[],
        construct: |_| Ok(BoxedStrategy::new(Honest)),
    },
    StrategyEntry {
        name: "selfish-mining",
        summary:
            "Eyal–Sirer block withholding; gamma = honest power mining the attacker's tip in a race",
        params: &[num("gamma", 0.0, "tie-break parameter in [0, 1]")],
        construct: |args| {
            let gamma = args.number("gamma")?;
            if !(0.0..=1.0).contains(&gamma) {
                return Err(args.bad("gamma", format!("must be in [0, 1], got {gamma}")));
            }
            Ok(BoxedStrategy::new(SelfishMining::new(gamma)))
        },
    },
    StrategyEntry {
        name: "stake-grinding",
        summary:
            "redraw the lottery seed up to `tries` times whenever the attacker authored her tip",
        params: &[num(
            "tries",
            1.0,
            "seed candidates per controlled block (1 = honest)",
        )],
        construct: |args| {
            let tries = args.index("tries")?;
            if tries == 0 || tries > u32::MAX as usize {
                return Err(args.bad("tries", "must be a positive integer"));
            }
            Ok(BoxedStrategy::new(StakeGrinding::new(tries as u32)))
        },
    },
    StrategyEntry {
        name: "sybil-split",
        summary: "present the attacker's stake as `identities` separate addresses (publishes honestly; pair with the `sybil` adapter)",
        params: &[num(
            "identities",
            1.0,
            "addresses the attacker splits her stake across (1 = no attack)",
        )],
        construct: |args| {
            let identities = args.index("identities")?;
            if identities == 0 || identities > u32::MAX as usize {
                return Err(args.bad("identities", "must be a positive integer"));
            }
            Ok(BoxedStrategy::new(SybilSplit::new(identities as u32)))
        },
    },
    StrategyEntry {
        name: "optimal-withholding",
        summary: "MDP-optimal block withholding: plays the value-iteration policy of the truncated fork MDP at the attacker's share",
        params: &[
            required(
                "alpha",
                ParamKind::Number,
                "attacker's mining/stake share, in (0, 0.5]",
            ),
            num("gamma", 0.0, "tie-break parameter in [0, 1]"),
            num("depth", 64.0, "fork-MDP truncation depth, integer in [2, 512]"),
        ],
        construct: |args| {
            let alpha = args.number("alpha")?;
            if !(alpha > 0.0 && alpha <= 0.5) {
                return Err(args.bad("alpha", format!("must be in (0, 0.5], got {alpha}")));
            }
            let gamma = args.number("gamma")?;
            if !(0.0..=1.0).contains(&gamma) {
                return Err(args.bad("gamma", format!("must be in [0, 1], got {gamma}")));
            }
            let depth = args.index("depth")?;
            if !(2..=512).contains(&depth) {
                return Err(args.bad("depth", format!("must be in [2, 512], got {depth}")));
            }
            Ok(BoxedStrategy::new(OptimalWithholding::new(
                alpha,
                gamma,
                depth as u32,
            )))
        },
    },
    StrategyEntry {
        name: "best-response",
        summary: "two-attacker equilibrium play: iterated optimal-withholding best responses against a frozen opponent",
        params: &[
            required(
                "alpha",
                ParamKind::Number,
                "this attacker's share, in (0, 0.5]",
            ),
            required(
                "opponent",
                ParamKind::Number,
                "the rival attacker's share; alpha + opponent must stay below 1",
            ),
            num("gamma", 0.0, "tie-break parameter in [0, 1]"),
            num("depth", 48.0, "fork-MDP truncation depth, integer in [2, 512]"),
            num("rounds", 12.0, "best-response iteration budget, integer in [1, 64]"),
        ],
        construct: |args| {
            let alpha = args.number("alpha")?;
            if !(alpha > 0.0 && alpha <= 0.5) {
                return Err(args.bad("alpha", format!("must be in (0, 0.5], got {alpha}")));
            }
            let opponent = args.number("opponent")?;
            if !(opponent > 0.0 && opponent <= 0.5) {
                return Err(args.bad("opponent", format!("must be in (0, 0.5], got {opponent}")));
            }
            if alpha + opponent >= 1.0 {
                return Err(args.bad(
                    "opponent",
                    format!("alpha + opponent must stay below 1, got {}", alpha + opponent),
                ));
            }
            let gamma = args.number("gamma")?;
            if !(0.0..=1.0).contains(&gamma) {
                return Err(args.bad("gamma", format!("must be in [0, 1], got {gamma}")));
            }
            let depth = args.index("depth")?;
            if !(2..=512).contains(&depth) {
                return Err(args.bad("depth", format!("must be in [2, 512], got {depth}")));
            }
            let rounds = args.index("rounds")?;
            if !(1..=64).contains(&rounds) {
                return Err(args.bad("rounds", format!("must be in [1, 64], got {rounds}")));
            }
            Ok(BoxedStrategy::new(BestResponse::new(
                alpha,
                opponent,
                EquilibriumConfig {
                    gamma,
                    depth: depth as u32,
                    max_rounds: rounds as u32,
                },
            )))
        },
    },
];

/// Every registered protocol, in listing order.
#[must_use]
pub fn registry() -> &'static [ProtocolEntry] {
    PROTOCOLS
}

/// Every registered adversary strategy, in listing order.
#[must_use]
pub fn strategies() -> &'static [StrategyEntry] {
    STRATEGIES
}

/// Looks a protocol entry up by spec name.
#[must_use]
pub fn find(name: &str) -> Option<&'static ProtocolEntry> {
    PROTOCOLS.iter().find(|e| e.name == name)
}

/// Whether every step of the protocol `spec` names pays its whole reward
/// to one winner, as `adversary` needs of its inner protocol. An unknown
/// name answers `false`; construction reports it.
fn pays_one_winner(spec: &ProtocolSpec) -> bool {
    match find(&spec.name).map(|e| e.payout) {
        Some(Payout::Winner) => true,
        Some(Payout::Inner) => {
            matches!(spec.get("inner"), Some(ArgValue::Spec(inner)) if pays_one_winner(inner))
        }
        Some(Payout::Split) | None => false,
    }
}

/// Constructs the protocol a spec describes. `shares` is the scenario's
/// initial share vector — [`Pow`]/[`Neo`] draw their fixed lottery weights
/// from it, and adapters validate miner indices against it.
///
/// # Errors
/// Returns a [`RegistryError`] naming the unknown entry or offending
/// parameter; nested construction errors surface from the innermost spec.
pub fn construct(spec: &ProtocolSpec, shares: &[f64]) -> Result<BoxedProtocol, RegistryError> {
    let entry =
        find(&spec.name).ok_or_else(|| RegistryError::UnknownProtocol(spec.name.clone()))?;
    let args = Args::check(entry.name, spec, entry.params)?;
    (entry.construct)(&args, shares)
}

/// Constructs the strategy a spec describes (the `strategy = ...` argument
/// of `adversary`).
///
/// # Errors
/// Returns a [`RegistryError`] naming the unknown strategy or offending
/// parameter.
pub fn construct_strategy(spec: &ProtocolSpec) -> Result<BoxedStrategy, RegistryError> {
    let entry = STRATEGIES
        .iter()
        .find(|e| e.name == spec.name)
        .ok_or_else(|| RegistryError::UnknownStrategy(spec.name.clone()))?;
    let args = Args::check(entry.name, spec, entry.params)?;
    (entry.construct)(&args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::{run_ensemble, EnsembleConfig};
    use crate::protocol::StepRewards;

    const SHARES: [f64; 2] = [0.2, 0.8];

    #[test]
    fn every_entry_constructs_its_example() {
        for entry in registry() {
            let spec = entry.example();
            assert_eq!(spec.name, entry.name);
            let protocol = construct(&spec, &SHARES)
                .unwrap_or_else(|e| panic!("{} example must construct: {e}", entry.name));
            assert!(!protocol.label().is_empty());
            assert!(protocol.reward_per_step() > 0.0);
        }
    }

    #[test]
    fn constructed_protocols_match_hand_built_fingerprints() {
        // The registry must be fingerprint-transparent: same name, params
        // and compounding flag as the concrete value.
        let check = |spec: &ProtocolSpec, concrete: &dyn IncentiveProtocol| {
            let boxed = construct(spec, &SHARES).expect("constructs");
            assert_eq!(boxed.name(), concrete.name());
            assert_eq!(boxed.params(), concrete.params());
            assert_eq!(boxed.rewards_compound(), concrete.rewards_compound());
            assert_eq!(boxed.label(), concrete.label());
        };
        check(
            &ProtocolSpec::new("pow").with("w", 0.01),
            &Pow::new(&SHARES, 0.01),
        );
        check(
            &ProtocolSpec::new("c-pos")
                .with("w", 0.01)
                .with("v", 0.1)
                .with("shards", 32.0),
            &CPos::new(0.01, 0.1, 32),
        );
        check(
            &ProtocolSpec::new("cash-out")
                .with("inner", ProtocolSpec::new("ml-pos").with("w", 0.01))
                .with("miner", 0.0)
                .with("stake", 0.2),
            &CashOut::new(MlPos::new(0.01), 0, 0.2),
        );
        check(
            &ProtocolSpec::new("adversary")
                .with("inner", ProtocolSpec::new("pow").with("w", 0.01))
                .with(
                    "strategy",
                    ProtocolSpec::new("selfish-mining").with("gamma", 0.5),
                ),
            &Adversary::new(Pow::new(&SHARES, 0.01), SelfishMining::new(0.5)),
        );
        check(
            &ProtocolSpec::new("mining-pool")
                .with("inner", ProtocolSpec::new("ml-pos").with("w", 0.01))
                .with("members", vec![0.0, 1.0]),
            &MiningPool::new(MlPos::new(0.01), vec![0, 1]),
        );
    }

    #[test]
    fn adversary_refuses_every_split_inner_at_construction() {
        // Each entry's payout bit must match what its example pays: a
        // single-winner inner builds an adapter that steps, and a
        // splitting one is refused before any game could panic on it.
        let refused = |spec: &ProtocolSpec| {
            let adversary = ProtocolSpec::new("adversary")
                .with("inner", spec.clone())
                .with("strategy", ProtocolSpec::new("honest"));
            construct(&adversary, &SHARES).err()
        };
        for entry in registry() {
            let inner = entry.example();
            let mut bare = construct(&inner, &SHARES).expect("example constructs");
            let mut rng = Xoshiro256StarStar::new(3);
            let one_winner = matches!(bare.step(&SHARES, 0, &mut rng), StepRewards::Winner(_));
            assert_eq!(pays_one_winner(&inner), one_winner, "{}", entry.name);
            match refused(&inner) {
                None => assert!(one_winner, "{} splits", entry.name),
                Some(RegistryError::BadParam { name, key, .. }) => {
                    assert!(!one_winner, "{} pays one winner", entry.name);
                    assert_eq!((name.as_str(), key.as_str()), ("adversary", "inner"));
                }
                Some(e) => panic!("{}: {e}", entry.name),
            }
        }
        let one_shard = ProtocolSpec::new("c-pos")
            .with("w", 0.01)
            .with("v", 0.1)
            .with("shards", 1.0);
        assert!(refused(&one_shard).is_some());
        assert!(refused(&ProtocolSpec::new("cash-out").with("inner", one_shard)).is_some());
    }

    #[test]
    fn defaults_fill_in() {
        // Bare names construct at paper defaults.
        let p = construct(&ProtocolSpec::new("ml-pos"), &SHARES).expect("default w");
        assert_eq!(p.params(), MlPos::new(0.01).params());
        // cash-out defaults the frozen stake to the miner's initial share.
        let spec = ProtocolSpec::new("cash-out").with("inner", ProtocolSpec::new("ml-pos"));
        let p = construct(&spec, &SHARES).expect("dynamic default");
        assert_eq!(p.params(), CashOut::new(MlPos::new(0.01), 0, 0.2).params());
    }

    #[test]
    fn boxed_protocols_run_ensembles_deterministically() {
        // The boxed adversary must behave exactly like the concrete one
        // (every repetition's game starts from the template's unforked
        // state).
        let spec = ProtocolSpec::new("adversary")
            .with("inner", ProtocolSpec::new("pow").with("w", 0.01))
            .with(
                "strategy",
                ProtocolSpec::new("selfish-mining").with("gamma", 0.5),
            );
        let shares = [0.3, 0.7];
        let boxed = construct(&spec, &shares).expect("constructs");
        let config = EnsembleConfig {
            checkpoints: vec![100, 300],
            ..EnsembleConfig::paper_default(0.3, 300, 60, 11)
        };
        let via_registry = run_ensemble(&boxed, &config);
        let direct = run_ensemble(
            &Adversary::new(Pow::new(&shares, 0.01), SelfishMining::new(0.5)),
            &config,
        );
        assert_eq!(via_registry.points, direct.points);
    }

    #[test]
    fn errors_are_specific() {
        let err = |spec: ProtocolSpec| construct(&spec, &SHARES).expect_err("must fail");
        assert_eq!(
            err(ProtocolSpec::new("nope")),
            RegistryError::UnknownProtocol("nope".into())
        );
        assert!(matches!(
            err(ProtocolSpec::new("pow").with("bogus", 1.0)),
            RegistryError::UnknownParam { .. }
        ));
        assert!(matches!(
            err(ProtocolSpec::new("pow").with("w", -1.0)),
            RegistryError::BadParam { .. }
        ));
        assert!(matches!(
            err(ProtocolSpec::new("cash-out")),
            RegistryError::MissingParam { .. }
        ));
        assert!(matches!(
            err(ProtocolSpec::new("cash-out")
                .with("inner", ProtocolSpec::new("ml-pos"))
                .with("miner", 7.0)),
            RegistryError::BadParam { .. }
        ));
        assert!(matches!(
            err(ProtocolSpec::new("mining-pool")
                .with("inner", ProtocolSpec::new("ml-pos"))
                .with("members", vec![1.0, 1.0])),
            RegistryError::BadParam { .. }
        ));
        // Nested errors surface from the innermost spec.
        assert_eq!(
            err(ProtocolSpec::new("adversary")
                .with("inner", ProtocolSpec::new("nope"))
                .with("strategy", ProtocolSpec::new("honest"))),
            RegistryError::UnknownProtocol("nope".into())
        );
        assert_eq!(
            err(ProtocolSpec::new("adversary")
                .with("inner", ProtocolSpec::new("pow"))
                .with("strategy", ProtocolSpec::new("sneaky"))),
            RegistryError::UnknownStrategy("sneaky".into())
        );
        let gamma = construct_strategy(&ProtocolSpec::new("selfish-mining").with("gamma", 1.5));
        assert!(matches!(gamma, Err(RegistryError::BadParam { .. })));
        // Errors render with the offending names.
        let text = err(ProtocolSpec::new("nope")).to_string();
        assert!(text.contains("nope"));
    }

    #[test]
    fn registry_names_are_unique_and_signatures_render() {
        let mut names: Vec<_> = registry().iter().map(|e| e.name).collect();
        names.extend(strategies().iter().map(|e| e.name));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate registry names");
        assert_eq!(find("pow").expect("pow").signature(), "pow(w = 0.01)");
        assert_eq!(
            find("adversary").expect("adversary").signature(),
            "adversary(inner = <spec>, strategy = <spec>)"
        );
        assert_eq!(strategies()[1].signature(), "selfish-mining(gamma = 0)");
    }

    /// Listing-count pin: adding (or dropping) a registry entry must be a
    /// conscious act — update this count together with the README and the
    /// `repro list` output.
    #[test]
    fn registry_listing_counts_are_pinned() {
        assert_eq!(registry().len(), 15, "protocol count changed");
        assert_eq!(strategies().len(), 6, "strategy count changed");
        let names: Vec<_> = strategies().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "honest",
                "selfish-mining",
                "stake-grinding",
                "sybil-split",
                "optimal-withholding",
                "best-response",
            ]
        );
        assert_eq!(
            strategies()[4].signature(),
            "optimal-withholding(alpha, gamma = 0, depth = 64)"
        );
    }

    /// The new strategies construct through specs and reject out-of-range
    /// or duplicated parameters with named errors.
    #[test]
    fn optimal_strategies_validate_their_parameters() {
        let ok = construct_strategy(
            &ProtocolSpec::new("optimal-withholding")
                .with("alpha", 0.3)
                .with("depth", 8.0),
        )
        .expect("in-range spec must construct");
        assert_eq!(ok.name(), "optimal-withholding");

        for (spec, needle) in [
            (
                ProtocolSpec::new("optimal-withholding").with("alpha", 0.7),
                "alpha",
            ),
            (
                ProtocolSpec::new("optimal-withholding")
                    .with("alpha", 0.3)
                    .with("depth", 1.0),
                "depth",
            ),
            (
                ProtocolSpec::new("optimal-withholding")
                    .with("alpha", 0.3)
                    .with("gamma", 1.5),
                "gamma",
            ),
            (
                ProtocolSpec::new("best-response")
                    .with("alpha", 0.5)
                    .with("opponent", 0.5),
                "opponent",
            ),
            (
                ProtocolSpec::new("best-response")
                    .with("alpha", 0.3)
                    .with("opponent", 0.2)
                    .with("rounds", 0.0),
                "rounds",
            ),
        ] {
            let err = construct_strategy(&spec).expect_err("out-of-range spec must fail");
            assert!(
                err.to_string().contains(needle),
                "error for {needle} was: {err}"
            );
        }

        let missing = construct_strategy(&ProtocolSpec::new("optimal-withholding"))
            .expect_err("alpha is required");
        assert!(missing.to_string().contains("alpha"), "{missing}");
    }
}
