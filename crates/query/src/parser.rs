//! Recursive-descent parser for the query language (paper Figure 7).
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query      := SELECT target CORR reference [ON predicates]
//!               [WITHIN number] [ORDER BY criterion] [EXEC kv (, kv)*]
//! target     := MODEL | MODELS number
//! reference  := identifier | TASK identifier
//! predicates := predicate (AND predicate)*
//! predicate  := dim (< | <=) number [unit]
//! dim        := MEMORY | FLOPS | LATENCY
//! unit       := % | MB | GFLOPS | MS        (default: %)
//! criterion  := SIMILARITY | MEMORY | FLOPS | LATENCY
//! kv         := identifier = (identifier | number)
//! ```
//!
//! The parser copies tokens that borrow from the text, so a query that
//! parses allocates the token list and what the [`Query`] keeps (its
//! predicates, a named reference and the `EXEC` pairs), nothing else.

use crate::ast::{
    BoundValue, FinalSelection, Query, RefSpec, ResourceDim, ResourcePredicate, SelectKind,
};
use crate::lexer::{lex, LexError, Token};
use sommelier_graph::TaskKind;
use std::fmt;

/// Parse failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// Unexpected token (or end of input) at token index.
    Unexpected {
        position: usize,
        found: Option<String>,
        expected: String,
    },
    /// Semantic issue (unknown task slug, threshold out of range…).
    Invalid(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected {
                position,
                found,
                expected,
            } => match found {
                Some(t) => write!(f, "expected {expected} at token {position}, found '{t}'"),
                None => write!(f, "expected {expected}, found end of query"),
            },
            ParseError::Invalid(m) => write!(f, "invalid query: {m}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: Token<'_>, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if t == want => Ok(()),
            other => Err(self.unexpected(other, what)),
        }
    }

    fn unexpected(&self, found: Option<Token<'_>>, expected: &str) -> ParseError {
        ParseError::Unexpected {
            position: self.pos.saturating_sub(1),
            found: found.map(|t| t.to_string()),
            expected: expected.to_string(),
        }
    }

    fn number(&mut self, what: &str) -> Result<f64, ParseError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            other => Err(self.unexpected(other, what)),
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.unexpected(other, what)),
        }
    }
}

/// Parse a query string.
///
/// ```
/// use sommelier_query::{parse, SelectKind};
/// let q = parse("SELECT models 3 CORR resnetish-50 ON memory <= 80% WITHIN 0.9").unwrap();
/// assert_eq!(q.select, SelectKind::Models(3));
/// assert_eq!(q.threshold, 0.9);
/// assert_eq!(q.predicates.len(), 1);
/// ```
pub fn parse(input: &str) -> Result<Query, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };

    p.expect(Token::Select, "SELECT")?;
    let select = match p.next() {
        Some(Token::Model) => SelectKind::Model,
        Some(Token::Models) => {
            let n = p.number("a model count after MODELS")?;
            if n < 1.0 || n.fract() != 0.0 {
                return Err(ParseError::Invalid(format!(
                    "MODELS takes a positive integer, got {n}"
                )));
            }
            SelectKind::Models(n as usize)
        }
        other => return Err(p.unexpected(other, "MODEL or MODELS")),
    };

    p.expect(Token::Corr, "CORR")?;
    let reference = match p.peek() {
        Some(Token::Task) => {
            p.next();
            let slug = p.ident("a task category after TASK")?;
            let task = TaskKind::from_slug(slug)
                .ok_or_else(|| ParseError::Invalid(format!("unknown task '{slug}'")))?;
            RefSpec::Task(task)
        }
        _ => RefSpec::Named(p.ident("a reference model name")?.to_string()),
    };

    let mut query = Query {
        select,
        reference,
        threshold: 0.95,
        predicates: Vec::new(),
        selection: FinalSelection::default(),
        exec_spec: Default::default(),
    };

    while let Some(tok) = p.peek() {
        match tok {
            Token::On => {
                p.next();
                loop {
                    query.predicates.push(parse_predicate(&mut p)?);
                    if p.peek() == Some(Token::And) {
                        p.next();
                    } else {
                        break;
                    }
                }
            }
            Token::Within => {
                p.next();
                let t = p.number("a threshold after WITHIN")?;
                if !(0.0..=1.0).contains(&t) {
                    return Err(ParseError::Invalid(format!(
                        "threshold must be in [0,1], got {t}"
                    )));
                }
                query.threshold = t;
            }
            Token::Order => {
                p.next();
                p.expect(Token::By, "BY after ORDER")?;
                query.selection = match p.next() {
                    Some(Token::Similarity) => FinalSelection::Similarity,
                    Some(Token::Memory) => FinalSelection::Memory,
                    Some(Token::Flops) => FinalSelection::Flops,
                    Some(Token::Latency) => FinalSelection::Latency,
                    other => return Err(p.unexpected(other, "an ordering criterion")),
                };
            }
            Token::Exec => {
                p.next();
                loop {
                    let key = p.ident("an EXEC setting key")?.to_string();
                    p.expect(Token::Eq, "'=' in EXEC setting")?;
                    let value = match p.next() {
                        Some(Token::Ident(v)) => v.to_string(),
                        Some(Token::Number(n)) => n.to_string(),
                        other => return Err(p.unexpected(other, "an EXEC setting value")),
                    };
                    query.exec_spec.insert(key, value);
                    if p.peek() == Some(Token::Comma) {
                        p.next();
                    } else {
                        break;
                    }
                }
            }
            other => {
                return Err(ParseError::Unexpected {
                    position: p.pos,
                    found: Some(other.to_string()),
                    expected: "ON, WITHIN, ORDER BY, EXEC, or end of query".into(),
                })
            }
        }
    }
    Ok(query)
}

fn parse_predicate(p: &mut Parser<'_>) -> Result<ResourcePredicate, ParseError> {
    let dim = match p.next() {
        Some(Token::Memory) => ResourceDim::Memory,
        Some(Token::Flops) => ResourceDim::Flops,
        Some(Token::Latency) => ResourceDim::Latency,
        other => return Err(p.unexpected(other, "MEMORY, FLOPS, or LATENCY")),
    };
    match p.next() {
        Some(Token::Lt) | Some(Token::Le) => {}
        other => return Err(p.unexpected(other, "'<' or '<='")),
    }
    let n = p.number("a bound value")?;
    let value = match p.peek() {
        Some(Token::Percent) => {
            p.next();
            BoundValue::RelativePercent(n)
        }
        Some(Token::Mb) | Some(Token::Gflops) | Some(Token::Ms) => {
            let unit = p.next().expect("peeked");
            let ok = matches!(
                (dim, unit),
                (ResourceDim::Memory, Token::Mb)
                    | (ResourceDim::Flops, Token::Gflops)
                    | (ResourceDim::Latency, Token::Ms)
            );
            if !ok {
                return Err(ParseError::Invalid(format!(
                    "unit {unit} does not match dimension {dim:?}"
                )));
            }
            BoundValue::Absolute(n)
        }
        // Bare numbers default to percent, the paper's common case of
        // relative budgets.
        _ => BoundValue::RelativePercent(n),
    };
    Ok(ResourcePredicate { dim, value })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_query_parses() {
        let q = parse(
            "SELECT model CORR resnetish-50 ON memory <= 80% AND flops < 60% WITHIN 0.95 ORDER BY memory",
        )
        .unwrap();
        assert_eq!(q.select, SelectKind::Model);
        assert_eq!(q.reference, RefSpec::Named("resnetish-50".into()));
        assert_eq!(q.predicates.len(), 2);
        assert_eq!(q.threshold, 0.95);
        assert_eq!(q.selection, FinalSelection::Memory);
    }

    #[test]
    fn task_reference_parses() {
        let q = parse("SELECT models 5 CORR TASK image-recognition WITHIN 0.9").unwrap();
        assert_eq!(q.select, SelectKind::Models(5));
        assert_eq!(
            q.reference,
            RefSpec::Task(TaskKind::ImageRecognition)
        );
    }

    #[test]
    fn unknown_task_is_invalid() {
        let err = parse("SELECT model CORR TASK juggling").unwrap_err();
        assert!(matches!(err, ParseError::Invalid(ref m) if m.contains("juggling")));
    }

    #[test]
    fn absolute_units_parse_and_must_match_dimension() {
        let q = parse("SELECT model CORR m ON memory <= 200 MB AND latency < 30 ms").unwrap();
        assert!(matches!(q.predicates[0].value, BoundValue::Absolute(v) if v == 200.0));
        let err = parse("SELECT model CORR m ON memory <= 200 ms").unwrap_err();
        assert!(matches!(err, ParseError::Invalid(_)));
    }

    #[test]
    fn bare_numbers_default_to_percent() {
        let q = parse("SELECT model CORR m ON flops <= 50").unwrap();
        assert!(matches!(
            q.predicates[0].value,
            BoundValue::RelativePercent(p) if p == 50.0
        ));
    }

    #[test]
    fn exec_spec_collects_pairs() {
        let q = parse("SELECT model CORR m EXEC device = gpu, batch = 8").unwrap();
        assert_eq!(q.exec_spec["device"], "gpu");
        assert_eq!(q.exec_spec["batch"], "8");
    }

    #[test]
    fn threshold_range_is_checked() {
        let err = parse("SELECT model CORR m WITHIN 1.5").unwrap_err();
        assert!(matches!(err, ParseError::Invalid(_)));
    }

    #[test]
    fn missing_select_is_reported() {
        let err = parse("CORR m").unwrap_err();
        assert!(matches!(err, ParseError::Unexpected { .. }));
    }

    #[test]
    fn models_count_must_be_positive_integer() {
        assert!(parse("SELECT models 0 CORR m").is_err());
        assert!(parse("SELECT models 2.5 CORR m").is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let err = parse("SELECT model CORR m WITHIN 0.9 banana").unwrap_err();
        assert!(matches!(err, ParseError::Unexpected { .. }));
    }

    #[test]
    fn default_threshold_is_95_percent() {
        let q = parse("SELECT model CORR m").unwrap();
        assert_eq!(q.threshold, 0.95);
    }
}
