//! Tokenization of the query language.
//!
//! Keywords are case-insensitive; identifiers admit the characters that
//! appear in repository keys (`-`, `.`, `/`, `:`); numbers are decimal
//! with an optional fraction; units (`%`, `mb`, `gflops`, `ms`) are
//! recognized as dedicated tokens so the parser can resolve bound values.
//! Tokens borrow their text from the input, so lexing allocates nothing
//! but the token list.

use std::fmt;
use std::iter::Peekable;
use std::str::CharIndices;

/// A lexical token.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Token<'a> {
    // keywords
    Select,
    Model,
    Models,
    Corr,
    Task,
    On,
    And,
    Within,
    Order,
    By,
    Exec,
    // dimensions / criteria
    Memory,
    Flops,
    Latency,
    Similarity,
    // units
    Percent,
    Mb,
    Gflops,
    Ms,
    // punctuation
    Lt,
    Le,
    Eq,
    Comma,
    // values
    Number(f64),
    Ident(&'a str),
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Number(n) => write!(f, "{n}"),
            Token::Ident(s) => write!(f, "{s}"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A lexing failure at a byte offset.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '-' | '_' | '.' | '/' | ':' | '+')
}

/// Every keyword and unit word, matched ignoring ASCII case.
const KEYWORDS: &[(&str, Token<'static>)] = &[
    ("select", Token::Select),
    ("model", Token::Model),
    ("models", Token::Models),
    ("corr", Token::Corr),
    ("task", Token::Task),
    ("on", Token::On),
    ("and", Token::And),
    ("within", Token::Within),
    ("order", Token::Order),
    ("by", Token::By),
    ("exec", Token::Exec),
    ("memory", Token::Memory),
    ("mem", Token::Memory),
    ("flops", Token::Flops),
    ("latency", Token::Latency),
    ("similarity", Token::Similarity),
    ("mb", Token::Mb),
    ("gflops", Token::Gflops),
    ("ms", Token::Ms),
];

/// Consume the run of characters that satisfy `keep`; the byte offset
/// where the run ends.
fn run_end(chars: &mut Peekable<CharIndices<'_>>, input: &str, keep: fn(char) -> bool) -> usize {
    while chars.next_if(|&(_, c)| keep(c)).is_some() {}
    chars.peek().map_or(input.len(), |&(i, _)| i)
}

/// Tokenize a query string.
pub fn lex(input: &str) -> Result<Vec<Token<'_>>, LexError> {
    // A query has about one token per five bytes, so one allocation
    // usually holds them all; a denser text grows the list as usual.
    let mut tokens = Vec::with_capacity(input.len() / 4);
    let mut chars = input.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        let token = match c {
            c if c.is_whitespace() => continue,
            '<' => match chars.next_if(|&(_, c)| c == '=') {
                Some(_) => Token::Le,
                None => Token::Lt,
            },
            '=' => Token::Eq,
            ',' => Token::Comma,
            '%' => Token::Percent,
            c if c.is_ascii_digit() => {
                let end = run_end(&mut chars, input, |c| c.is_ascii_digit() || c == '.');
                let text = &input[start..end];
                Token::Number(text.parse().map_err(|_| LexError {
                    offset: start,
                    message: format!("malformed number '{text}'"),
                })?)
            }
            c if ident_char(c) => {
                keyword_or_ident(&input[start..run_end(&mut chars, input, ident_char)])
            }
            other => {
                return Err(LexError {
                    offset: start,
                    message: format!("unexpected character '{other}'"),
                })
            }
        };
        tokens.push(token);
    }
    Ok(tokens)
}

fn keyword_or_ident(word: &str) -> Token<'_> {
    KEYWORDS
        .iter()
        .find(|(keyword, _)| word.eq_ignore_ascii_case(keyword))
        .map_or(Token::Ident(word), |&(_, token)| token)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keywords_are_case_insensitive() {
        let t = lex("SELECT select SeLeCt").unwrap();
        assert_eq!(t, vec![Token::Select, Token::Select, Token::Select]);
    }

    #[test]
    fn full_query_tokenizes() {
        let t = lex("SELECT model CORR resnetish-50 ON memory <= 80% AND flops < 0.5 GFLOPS WITHIN 0.95").unwrap();
        assert!(t.contains(&Token::Corr));
        assert!(t.contains(&Token::Ident("resnetish-50")));
        assert!(t.contains(&Token::Le));
        assert!(t.contains(&Token::Percent));
        assert!(t.contains(&Token::Gflops));
        assert!(t.contains(&Token::Number(0.95)));
    }

    #[test]
    fn identifiers_allow_repo_key_characters() {
        let t = lex("hub/google:bit-r50x1.v2").unwrap();
        assert_eq!(t, vec![Token::Ident("hub/google:bit-r50x1.v2")]);
    }

    #[test]
    fn numbers_parse_with_fractions() {
        assert_eq!(lex("0.25").unwrap(), vec![Token::Number(0.25)]);
        assert_eq!(lex("100").unwrap(), vec![Token::Number(100.0)]);
    }

    #[test]
    fn malformed_number_is_an_error() {
        let err = lex("1.2.3").unwrap_err();
        assert!(err.message.contains("malformed number"));
    }

    #[test]
    fn unexpected_character_reports_offset() {
        let err = lex("select !").unwrap_err();
        assert_eq!(err.offset, 7);
    }

    #[test]
    fn offsets_count_bytes_after_non_ascii_text() {
        // `é` is two bytes: the `!` is the eighth character but at byte 8.
        let err = lex("sélect !").unwrap_err();
        assert_eq!(err.offset, 8);
        assert_eq!(&"sélect !"[err.offset..], "!");
        assert_eq!(err.to_string(), "lex error at byte 8: unexpected character '!'");
        assert_eq!(lex("模型 1.2.3").unwrap_err().offset, 7);
    }

    #[test]
    fn mem_is_an_alias_for_memory() {
        assert_eq!(lex("mem").unwrap(), vec![Token::Memory]);
    }

    /// The lexer as it was before its tokens borrowed from the input:
    /// it collects the text into a `Vec<char>`, copies every word into
    /// its own `String` and lowercases it to match keywords, and reports
    /// offsets as char indices. The real lexer must produce the same
    /// tokens and errors, with each offset as the matching byte.
    mod reference {
        use super::LexError;

        #[derive(Clone, Debug, PartialEq)]
        pub enum Token {
            // keywords
            Select,
            Model,
            Models,
            Corr,
            Task,
            On,
            And,
            Within,
            Order,
            By,
            Exec,
            // dimensions / criteria
            Memory,
            Flops,
            Latency,
            Similarity,
            // units
            Percent,
            Mb,
            Gflops,
            Ms,
            // punctuation
            Lt,
            Le,
            Eq,
            Comma,
            // values
            Number(f64),
            Ident(String),
        }

        fn ident_char(c: char) -> bool {
            c.is_alphanumeric() || matches!(c, '-' | '_' | '.' | '/' | ':' | '+')
        }

        /// Tokenize a query string.
        pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
            let mut tokens = Vec::new();
            let bytes: Vec<char> = input.chars().collect();
            let mut i = 0usize;
            while i < bytes.len() {
                let c = bytes[i];
                if c.is_whitespace() {
                    i += 1;
                    continue;
                }
                match c {
                    '<' => {
                        if bytes.get(i + 1) == Some(&'=') {
                            tokens.push(Token::Le);
                            i += 2;
                        } else {
                            tokens.push(Token::Lt);
                            i += 1;
                        }
                    }
                    '=' => {
                        tokens.push(Token::Eq);
                        i += 1;
                    }
                    ',' => {
                        tokens.push(Token::Comma);
                        i += 1;
                    }
                    '%' => {
                        tokens.push(Token::Percent);
                        i += 1;
                    }
                    c if c.is_ascii_digit() => {
                        let start = i;
                        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '.') {
                            i += 1;
                        }
                        let text: String = bytes[start..i].iter().collect();
                        let n: f64 = text.parse().map_err(|_| LexError {
                            offset: start,
                            message: format!("malformed number '{text}'"),
                        })?;
                        tokens.push(Token::Number(n));
                    }
                    c if ident_char(c) => {
                        let start = i;
                        while i < bytes.len() && ident_char(bytes[i]) {
                            i += 1;
                        }
                        let word: String = bytes[start..i].iter().collect();
                        tokens.push(keyword_or_ident(&word));
                    }
                    other => {
                        return Err(LexError {
                            offset: i,
                            message: format!("unexpected character '{other}'"),
                        })
                    }
                }
            }
            Ok(tokens)
        }

        fn keyword_or_ident(word: &str) -> Token {
            match word.to_ascii_lowercase().as_str() {
                "select" => Token::Select,
                "model" => Token::Model,
                "models" => Token::Models,
                "corr" => Token::Corr,
                "task" => Token::Task,
                "on" => Token::On,
                "and" => Token::And,
                "within" => Token::Within,
                "order" => Token::Order,
                "by" => Token::By,
                "exec" => Token::Exec,
                "memory" | "mem" => Token::Memory,
                "flops" => Token::Flops,
                "latency" => Token::Latency,
                "similarity" => Token::Similarity,
                "mb" => Token::Mb,
                "gflops" => Token::Gflops,
                "ms" => Token::Ms,
                _ => Token::Ident(word.to_string()),
            }
        }
    }

    const WORDS: &[&str] = &[
        "select", "model", "models", "corr", "task", "on", "and", "within", "order", "by",
        "exec", "memory", "mem", "memo", "flops", "latency", "similarity", "mb", "gflops",
        "ms", "msx", "resnetish-50", "hub/google:bit-r50x1.v2", "a_b+c", "modèle", "模型",
        "Straße", "ΣΕΛΕΚΤ", "x٣", "٣٤",
    ];
    const NUMBERS: &[&str] = &["0", "7", "100", "0.25", "007", "1.", "1.2.3", "3..", "12.50"];
    const SYMBOLS: &[&str] = &["<", "<=", "< =", "=", ",", "%", "!", "?", "(", "*", "'", "€", "é!"];
    const SPACES: &[&str] = &["", " ", "  ", "\t", "\n", "\u{a0}", "\u{3000}", "\u{2003}"];

    /// Query-shaped texts: words in random ASCII case, digit runs, `<`
    /// and `<=`, stray characters and Unicode text and whitespace, with
    /// pieces sometimes abutting (`mem<=5%`, `1.2abc`).
    struct Texts;

    impl Strategy for Texts {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            let pick = |rng: &mut TestRng, from: &[&'static str]| {
                from[rng.below(from.len() as u64) as usize]
            };
            let mut text = String::new();
            for _ in 0..rng.below(12) {
                text.push_str(pick(rng, SPACES));
                match rng.below(10) {
                    0..=4 => text.extend(pick(rng, WORDS).chars().map(|c| match rng.below(3) {
                        0 => c.to_ascii_uppercase(),
                        _ => c,
                    })),
                    5 | 6 => text.push_str(pick(rng, NUMBERS)),
                    7 | 8 => text.push_str(pick(rng, SYMBOLS)),
                    _ => text.extend(char::from_u32(rng.below(0x1_0000) as u32)),
                }
            }
            text
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn lex_matches_the_char_vector_reference(text in Texts) {
            // The two `Token` types print alike, variant for variant.
            let got = lex(&text).map(|tokens| format!("{tokens:?}"));
            let want = reference::lex(&text)
                .map(|tokens| format!("{tokens:?}"))
                .map_err(|e| LexError {
                    offset: text.char_indices().nth(e.offset).map_or(text.len(), |(byte, _)| byte),
                    ..e
                });
            prop_assert!(got == want, "{text:?}: lexer {got:?}, reference {want:?}");
        }
    }
}
