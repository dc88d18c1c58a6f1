//! The hand-rolled scenario text format (`.scn` files).
//!
//! The workspace's dependency policy vendors API-compatible stubs instead
//! of real crates, so spec files use a small purpose-built grammar rather
//! than a serde format. It is line-agnostic, `#`-commented, and round-trips
//! exactly against the printer ([`super::print_scenarios`]):
//!
//! ```text
//! # Eyal–Sirer selfish mining at the profitability threshold.
//! scenario "selfish a=0.30 gamma=0.5" {
//!   protocol = adversary(inner = pow(w = 0.01),
//!                        strategy = selfish-mining(gamma = 0.5))
//!   shares = [0.3, 0.7]               # or zipf(1000000, 1.2) or empirical([5.1, 2.0, 0.4])
//!   checkpoints = linear(2000, 10)    # or log(100000, 4) or [10, 50, 100]
//!   repetitions = 2000                # optional: defaults to --reps
//!   withholding = 1000                # optional: Section 6.3 schedule
//!   system = pow(horizon = 1500, salt = 49)   # optional hash-level check
//! }
//! ```
//!
//! Numbers are parsed with Rust's `f64`/`u64` parsers and printed with the
//! shortest round-tripping representation, so values survive the
//! print→parse cycle bit-exactly.

use super::{ArgValue, Checkpoints, ProtocolSpec, ScenarioSpec, SharesSpec, SystemSpec};
use std::fmt;

/// A parse failure, with the 1-based line it was detected on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
    /// Stable kebab-case identifier for wire responses: `parse` for a
    /// syntax error, or the
    /// [`ValidationError::code`](super::ValidationError::code) of a
    /// scenario that parsed but failed [`ScenarioSpec::validate`].
    pub code: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(String),
    Str(String),
    Punct(char),
}

impl Token {
    fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("`{s}`"),
            Token::Number(s) => format!("number `{s}`"),
            Token::Str(s) => format!("string \"{s}\""),
            Token::Punct(c) => format!("`{c}`"),
        }
    }
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            chars: text.chars().peekable(),
            line: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: message.into(),
            code: "parse",
        }
    }

    /// Returns the next token with the line it started on, or `None` at
    /// end of input.
    fn next_token(&mut self) -> Result<Option<(Token, usize)>, ParseError> {
        loop {
            match self.chars.peek() {
                None => return Ok(None),
                Some('\n') => {
                    self.line += 1;
                    self.chars.next();
                }
                Some(c) if c.is_whitespace() => {
                    self.chars.next();
                }
                Some('#') => {
                    while let Some(&c) = self.chars.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.chars.next();
                    }
                }
                Some(_) => break,
            }
        }
        let line = self.line;
        let c = *self.chars.peek().expect("peeked above");
        if matches!(c, '{' | '}' | '(' | ')' | '[' | ']' | '=' | ',') {
            self.chars.next();
            return Ok(Some((Token::Punct(c), line)));
        }
        if c == '"' {
            self.chars.next();
            let mut s = String::new();
            loop {
                match self.chars.next() {
                    None => return Err(self.error("unterminated string")),
                    Some('\n') => return Err(self.error("newline inside string")),
                    Some('"') => break,
                    Some(other) => s.push(other),
                }
            }
            return Ok(Some((Token::Str(s), line)));
        }
        if c.is_ascii_alphabetic() {
            let mut s = String::new();
            while let Some(&c) = self.chars.peek() {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    s.push(c);
                    self.chars.next();
                } else {
                    break;
                }
            }
            return Ok(Some((Token::Ident(s), line)));
        }
        if c.is_ascii_digit() || c == '-' || c == '+' || c == '.' {
            let mut s = String::new();
            // Sign, digits, fraction, exponent — validated by f64/u64
            // parsing at use sites.
            while let Some(&c) = self.chars.peek() {
                let exponent_sign =
                    (c == '-' || c == '+') && matches!(s.chars().last(), Some('e' | 'E'));
                if c.is_ascii_digit()
                    || c == '.'
                    || c == 'e'
                    || c == 'E'
                    || exponent_sign
                    || (s.is_empty() && (c == '-' || c == '+'))
                {
                    s.push(c);
                    self.chars.next();
                } else {
                    break;
                }
            }
            return Ok(Some((Token::Number(s), line)));
        }
        Err(self.error(format!("unexpected character `{c}`")))
    }
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
}

impl Parser {
    fn new(text: &str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(text);
        let mut tokens = Vec::new();
        while let Some(t) = lexer.next_token()? {
            tokens.push(t);
        }
        Ok(Self { tokens, pos: 0 })
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(1, |(_, line)| *line)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
            code: "parse",
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self, expected: &str) -> Result<Token, ParseError> {
        match self.tokens.get(self.pos) {
            Some((t, _)) => {
                self.pos += 1;
                Ok(t.clone())
            }
            None => Err(ParseError {
                line: self.tokens.last().map_or(1, |(_, line)| *line),
                message: format!("unexpected end of input, expected {expected}"),
                code: "parse",
            }),
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.next(&format!("`{c}`"))? {
            Token::Punct(got) if got == c => Ok(()),
            other => Err(self.error_before(format!("expected `{c}`, found {}", other.describe()))),
        }
    }

    /// Like [`error`](Self::error) but anchored on the token just
    /// consumed.
    fn error_before(&self, message: String) -> ParseError {
        let idx = self.pos.saturating_sub(1);
        ParseError {
            line: self.tokens.get(idx).map_or(1, |(_, line)| *line),
            message,
            code: "parse",
        }
    }

    fn ident(&mut self, expected: &str) -> Result<String, ParseError> {
        match self.next(expected)? {
            Token::Ident(s) => Ok(s),
            other => {
                Err(self.error_before(format!("expected {expected}, found {}", other.describe())))
            }
        }
    }

    fn f64(&mut self) -> Result<f64, ParseError> {
        match self.next("a number")? {
            Token::Number(s) => s
                .parse::<f64>()
                .map_err(|_| self.error_before(format!("`{s}` is not a valid number"))),
            other => {
                Err(self.error_before(format!("expected a number, found {}", other.describe())))
            }
        }
    }

    fn u64(&mut self, what: &str) -> Result<u64, ParseError> {
        match self.next("an integer")? {
            Token::Number(s) => s.parse::<u64>().map_err(|_| {
                self.error_before(format!("{what} must be a non-negative integer, got `{s}`"))
            }),
            other => Err(self.error_before(format!(
                "expected an integer {what}, found {}",
                other.describe()
            ))),
        }
    }

    fn usize(&mut self, what: &str) -> Result<usize, ParseError> {
        Ok(self.u64(what)? as usize)
    }

    /// `[ number, number, ... ]` (the opening `[` already consumed).
    fn number_list(&mut self) -> Result<Vec<f64>, ParseError> {
        let mut values = Vec::new();
        if self.peek() == Some(&Token::Punct(']')) {
            self.pos += 1;
            return Ok(values);
        }
        loop {
            values.push(self.f64()?);
            match self.next("`,` or `]`")? {
                Token::Punct(',') => {}
                Token::Punct(']') => return Ok(values),
                other => {
                    return Err(self
                        .error_before(format!("expected `,` or `]`, found {}", other.describe())))
                }
            }
        }
    }

    /// `name` or `name(key = value, ...)` — values are numbers, lists or
    /// nested specs.
    fn protocol_spec(&mut self) -> Result<ProtocolSpec, ParseError> {
        let name = self.ident("a protocol name")?;
        let mut spec = ProtocolSpec::new(name);
        if self.peek() != Some(&Token::Punct('(')) {
            return Ok(spec);
        }
        self.pos += 1;
        if self.peek() == Some(&Token::Punct(')')) {
            self.pos += 1;
            return Ok(spec);
        }
        loop {
            let key = self.ident("a parameter name")?;
            if spec.get(&key).is_some() {
                return Err(self.error_before(format!("duplicate parameter `{key}`")));
            }
            self.expect_punct('=')?;
            let value = match self.peek() {
                Some(Token::Punct('[')) => {
                    self.pos += 1;
                    ArgValue::List(self.number_list()?)
                }
                Some(Token::Ident(_)) => ArgValue::Spec(self.protocol_spec()?),
                _ => ArgValue::Number(self.f64()?),
            };
            spec = spec.with(key, value);
            match self.next("`,` or `)`")? {
                Token::Punct(',') => {}
                Token::Punct(')') => return Ok(spec),
                other => {
                    return Err(self
                        .error_before(format!("expected `,` or `)`, found {}", other.describe())))
                }
            }
        }
    }

    /// An explicit `[...]` list, `zipf(count, exponent)` or
    /// `empirical([...])`.
    fn shares_spec(&mut self) -> Result<SharesSpec, ParseError> {
        match self.peek() {
            Some(Token::Punct('[')) => {
                self.pos += 1;
                Ok(SharesSpec::Explicit(self.number_list()?))
            }
            Some(Token::Ident(kind)) if kind == "zipf" => {
                self.pos += 1;
                self.expect_punct('(')?;
                let count = self.usize("count")?;
                self.expect_punct(',')?;
                let exponent = self.f64()?;
                self.expect_punct(')')?;
                Ok(SharesSpec::Zipf { count, exponent })
            }
            Some(Token::Ident(kind)) if kind == "empirical" => {
                self.pos += 1;
                self.expect_punct('(')?;
                self.expect_punct('[')?;
                let values = self.number_list()?;
                self.expect_punct(')')?;
                Ok(SharesSpec::Empirical(values))
            }
            _ => Err(self.error(
                "expected shares: an explicit `[s1, s2, ...]` list, `zipf(count, exponent)` \
                 or `empirical([s1, s2, ...])`",
            )),
        }
    }

    fn checkpoints(&mut self) -> Result<Checkpoints, ParseError> {
        match self.peek() {
            Some(Token::Punct('[')) => {
                self.pos += 1;
                let line = self.line();
                let values = self.number_list()?;
                let mut points = Vec::with_capacity(values.len());
                for v in values {
                    if v.fract() != 0.0 || !(0.0..=u64::MAX as f64).contains(&v) {
                        return Err(ParseError {
                            line,
                            message: format!("checkpoint `{v}` is not a non-negative integer"),
                            code: "parse",
                        });
                    }
                    points.push(v as u64);
                }
                Ok(Checkpoints::Explicit(points))
            }
            Some(Token::Ident(kind)) if kind == "linear" => {
                self.pos += 1;
                self.expect_punct('(')?;
                let horizon = self.u64("horizon")?;
                self.expect_punct(',')?;
                let count = self.usize("count")?;
                self.expect_punct(')')?;
                Ok(Checkpoints::Linear { horizon, count })
            }
            Some(Token::Ident(kind)) if kind == "log" => {
                self.pos += 1;
                self.expect_punct('(')?;
                let horizon = self.u64("horizon")?;
                self.expect_punct(',')?;
                let per_decade = self.usize("per_decade")?;
                self.expect_punct(')')?;
                Ok(Checkpoints::Log {
                    horizon,
                    per_decade,
                })
            }
            _ => Err(self.error(
                "expected checkpoints: `linear(horizon, count)`, `log(horizon, per_decade)` \
                 or an explicit `[n1, n2, ...]` list",
            )),
        }
    }

    /// `engine(horizon = N, salt = N)` with `salt` optional.
    fn system_spec(&mut self) -> Result<SystemSpec, ParseError> {
        let engine = self.ident("an engine name")?;
        let mut horizon: Option<u64> = None;
        let mut salt: Option<u64> = None;
        self.expect_punct('(')?;
        loop {
            let key = self.ident("`horizon` or `salt`")?;
            self.expect_punct('=')?;
            match key.as_str() {
                "horizon" if horizon.is_none() => horizon = Some(self.u64("horizon")?),
                "salt" if salt.is_none() => salt = Some(self.u64("salt")?),
                "horizon" | "salt" => {
                    return Err(self.error_before(format!("duplicate system parameter `{key}`")))
                }
                other => {
                    return Err(self.error_before(format!(
                        "unknown system parameter `{other}` (expected `horizon` or `salt`)"
                    )))
                }
            }
            match self.next("`,` or `)`")? {
                Token::Punct(',') => {}
                Token::Punct(')') => break,
                other => {
                    return Err(self
                        .error_before(format!("expected `,` or `)`, found {}", other.describe())))
                }
            }
        }
        let horizon =
            horizon.ok_or_else(|| self.error_before("system needs `horizon = N`".into()))?;
        Ok(SystemSpec {
            engine,
            horizon,
            salt: salt.unwrap_or(0),
        })
    }

    /// One `scenario "name" { ... }` block (the `scenario` keyword already
    /// consumed).
    fn scenario(&mut self) -> Result<ScenarioSpec, ParseError> {
        let start_line = self.line();
        let name = match self.next("a quoted scenario name")? {
            Token::Str(s) => s,
            other => {
                return Err(self.error_before(format!(
                    "expected a quoted scenario name, found {}",
                    other.describe()
                )))
            }
        };
        self.expect_punct('{')?;
        let mut protocol: Option<ProtocolSpec> = None;
        let mut shares: Option<SharesSpec> = None;
        let mut checkpoints: Option<Checkpoints> = None;
        let mut repetitions: Option<usize> = None;
        let mut withholding: Option<u64> = None;
        let mut system: Option<SystemSpec> = None;
        loop {
            match self.next("a scenario field or `}`")? {
                Token::Punct('}') => break,
                Token::Ident(key) => {
                    let duplicate =
                        |p: &mut Parser| Err(p.error_before(format!("duplicate field `{key}`")));
                    self.expect_punct('=')?;
                    match key.as_str() {
                        "protocol" if protocol.is_none() => {
                            protocol = Some(self.protocol_spec()?);
                        }
                        "shares" if shares.is_none() => {
                            shares = Some(self.shares_spec()?);
                        }
                        "checkpoints" if checkpoints.is_none() => {
                            checkpoints = Some(self.checkpoints()?);
                        }
                        "repetitions" if repetitions.is_none() => {
                            repetitions = Some(self.usize("repetitions")?);
                        }
                        "withholding" if withholding.is_none() => {
                            withholding = Some(self.u64("withholding period")?);
                        }
                        "system" if system.is_none() => {
                            system = Some(self.system_spec()?);
                        }
                        "protocol" | "shares" | "checkpoints" | "repetitions" | "withholding"
                        | "system" => return duplicate(self),
                        other => {
                            return Err(self.error_before(format!(
                                "unknown scenario field `{other}` (expected protocol, shares, \
                                 checkpoints, repetitions, withholding or system)"
                            )))
                        }
                    }
                }
                other => {
                    return Err(self.error_before(format!(
                        "expected a scenario field or `}}`, found {}",
                        other.describe()
                    )))
                }
            }
        }
        let missing = |what: &str| ParseError {
            line: start_line,
            message: format!("scenario \"{name}\" is missing the `{what}` field"),
            code: "parse",
        };
        let protocol = protocol.ok_or_else(|| missing("protocol"))?;
        let shares = shares.ok_or_else(|| missing("shares"))?;
        let checkpoints = checkpoints.ok_or_else(|| missing("checkpoints"))?;
        let spec = ScenarioSpec {
            name,
            protocol,
            shares,
            checkpoints,
            repetitions,
            withholding,
            system,
        };
        spec.validate().map_err(|error| ParseError {
            line: start_line,
            message: format!("scenario \"{}\": {error}", spec.name),
            code: error.code(),
        })?;
        Ok(spec)
    }
}

/// Parses a scenario file: any number of `scenario "name" { ... }` blocks
/// plus `#` comments. Every returned spec has passed
/// [`ScenarioSpec::validate`].
///
/// # Errors
/// Returns the first syntax or validation error, with its source line.
pub fn parse_scenarios(text: &str) -> Result<Vec<ScenarioSpec>, ParseError> {
    let mut parser = Parser::new(text)?;
    let mut specs = Vec::new();
    while let Some(token) = parser.peek() {
        match token {
            Token::Ident(kw) if kw == "scenario" => {
                parser.pos += 1;
                specs.push(parser.scenario()?);
            }
            other => {
                return Err(parser.error(format!("expected `scenario`, found {}", other.describe())))
            }
        }
    }
    if specs.is_empty() {
        return Err(ParseError {
            line: 1,
            message: "no scenarios found".into(),
            code: "parse",
        });
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::super::print_scenarios;
    use super::*;

    const SAMPLE: &str = r#"
# A comment.
scenario "selfish a=0.30 gamma=0.5" {
  protocol = adversary(inner = pow(w = 0.01),
                       strategy = selfish-mining(gamma = 0.5))  # composed
  shares = [0.3, 0.7]
  checkpoints = linear(2000, 10)
  repetitions = 500
}

scenario "fsl withholding" {
  protocol = fsl-pos(w = 0.01)
  shares = [0.2, 0.8]
  checkpoints = [100, 1000, 5000]
  withholding = 1000
  system = fsl-pos(horizon = 1500, salt = 194)
}
"#;

    #[test]
    fn parses_the_sample() {
        let specs = parse_scenarios(SAMPLE).expect("sample parses");
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "selfish a=0.30 gamma=0.5");
        assert_eq!(specs[0].protocol.name, "adversary");
        assert_eq!(specs[0].repetitions, Some(500));
        assert_eq!(specs[0].initial_shares(), vec![0.3, 0.7]);
        let Some(ArgValue::Spec(inner)) = specs[0].protocol.get("inner") else {
            panic!("inner spec");
        };
        assert_eq!(inner.name, "pow");
        assert_eq!(inner.get("w"), Some(&ArgValue::Number(0.01)));
        assert_eq!(specs[1].withholding, Some(1000));
        assert_eq!(
            specs[1].checkpoints,
            Checkpoints::Explicit(vec![100, 1000, 5000])
        );
        let system = specs[1].system.as_ref().expect("system");
        assert_eq!(
            (system.engine.as_str(), system.horizon, system.salt),
            ("fsl-pos", 1500, 194)
        );
    }

    #[test]
    fn round_trips_through_the_printer() {
        let specs = parse_scenarios(SAMPLE).expect("sample parses");
        let printed = print_scenarios(&specs);
        let reparsed = parse_scenarios(&printed).expect("printed form parses");
        assert_eq!(specs, reparsed);
        // And printing is a fixed point.
        assert_eq!(printed, print_scenarios(&reparsed));
    }

    #[test]
    fn zipf_and_empirical_shares_parse_and_round_trip() {
        let text = r#"
scenario "million miners" {
  protocol = ml-pos(w = 0.01)
  shares = zipf(1000000, 1.2)
  checkpoints = log(100000, 4)
}

scenario "measured stakes" {
  protocol = sl-pos(w = 0.01)
  shares = empirical([5.1, 2.0, 0.4])
  checkpoints = [10, 100]
}
"#;
        let specs = parse_scenarios(text).expect("parses");
        assert_eq!(
            specs[0].shares,
            SharesSpec::Zipf {
                count: 1_000_000,
                exponent: 1.2
            }
        );
        assert_eq!(specs[0].shares.miner_count(), 1_000_000);
        assert_eq!(specs[1].shares, SharesSpec::Empirical(vec![5.1, 2.0, 0.4]));
        assert_eq!(specs[1].initial_shares(), vec![5.1, 2.0, 0.4]);
        let printed = print_scenarios(&specs);
        assert!(printed.contains("shares = zipf(1000000, 1.2)"));
        assert!(printed.contains("shares = empirical([5.1, 2, 0.4])"));
        let reparsed = parse_scenarios(&printed).expect("printed form parses");
        assert_eq!(specs, reparsed);
    }

    #[test]
    fn bad_share_generators_are_line_numbered_errors() {
        let check = |text: &str, line: usize, needle: &str| {
            let err = parse_scenarios(text).expect_err(needle);
            assert_eq!(err.line, line, "{err}");
            assert!(err.message.contains(needle), "`{}`", err.message);
        };
        check(
            "scenario \"x\" {\n  protocol = pow\n  shares = zipf(0, 1.0)\n  checkpoints = [10]\n}",
            1,
            "at least one miner",
        );
        check(
            "scenario \"x\" {\n  protocol = pow\n  shares = zipf(10, -1)\n  checkpoints = [10]\n}",
            1,
            "exponent",
        );
        check(
            "scenario \"x\" {\n  protocol = pow\n  shares = bogus(3)\n  checkpoints = [10]\n}",
            3,
            "expected shares",
        );
    }

    #[test]
    fn scientific_notation_and_signs() {
        let text = r#"scenario "w sweep" {
            protocol = ml-pos(w = 1e-4)
            shares = [0.2, 0.8]
            checkpoints = [10]
        }"#;
        let specs = parse_scenarios(text).expect("parses");
        assert_eq!(specs[0].protocol.get("w"), Some(&ArgValue::Number(1e-4)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let check = |text: &str, line: usize, needle: &str| {
            let err = parse_scenarios(text).expect_err(needle);
            assert_eq!(err.line, line, "{err}");
            assert_eq!(err.code, "parse", "{err}");
            assert!(
                err.message.contains(needle),
                "`{}` should mention `{needle}`",
                err.message
            );
        };
        // The dangling `=` is detected at the `}` that follows, line 3.
        check("scenario \"x\" {\n  protocol = \n}", 3, "expected");
        check(
            "scenario \"x\" {\n  protocol = pow\n  shares = [0.2, 0.8]\n  bogus = 3\n}",
            4,
            "unknown scenario field",
        );
        check(
            "scenario \"x\" {\n  protocol = pow\n  protocol = pow\n}",
            3,
            "duplicate field",
        );
        check(
            "scenario \"x\" {\n  protocol = pow(w = 1, w = 2)\n}",
            2,
            "duplicate parameter",
        );
        check("nonsense", 1, "expected `scenario`");
        check("", 1, "no scenarios");
        check("scenario \"x\" {\n  protocol = pow\n}", 1, "missing");
        check(
            "scenario \"x\" {\n  protocol = pow\n  shares = [0.2, 0.8]\n  checkpoints = [2.5]\n}",
            4,
            "not a non-negative integer",
        );
    }

    #[test]
    fn validation_failures_are_parse_errors() {
        let text =
            "scenario \"x\" {\n  protocol = pow\n  shares = [0.2, 0.8]\n  checkpoints = [10, 5]\n}";
        let err = parse_scenarios(text).expect_err("descending checkpoints");
        assert!(err.message.contains("strictly ascending"), "{err}");
        assert_eq!(err.code, "unsorted-checkpoints");
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(parse_scenarios("scenario \"x").is_err());
        assert!(parse_scenarios("scenario \"x\ny\"").is_err());
    }
}
