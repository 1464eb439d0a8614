//! Tokenizer for the Pig Latin subset.

use restore_common::{Error, Result};

/// A token with its source position (for error messages). Identifier
/// and string payloads borrow the query text, so a token is `Copy` and
/// the parser makes a `String` only where the AST keeps one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub line: usize,
    pub col: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'a> {
    /// Bare identifier or keyword (case-insensitive keywords are resolved
    /// by the parser; the raw text is preserved).
    Ident(&'a str),
    /// `'single quoted string'`.
    StrLit(&'a str),
    /// Integer literal.
    IntLit(i64),
    /// Floating literal.
    DoubleLit(f64),
    /// Positional field `$3`.
    Positional(usize),
    Eq,     // ==
    Neq,    // !=
    Le,     // <=
    Ge,     // >=
    Lt,     // <
    Gt,     // >
    Assign, // =
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Semi,
    Dot,
    DoubleColon, // ::
    Eof,
}

impl TokenKind<'_> {
    /// Keyword check, case-insensitive.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenize a full query.
pub fn tokenize(src: &str) -> Result<Vec<Token<'_>>> {
    let mut tokens = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;

    macro_rules! push {
        ($kind:expr, $len:expr) => {{
            tokens.push(Token { kind: $kind, line, col });
            i += $len;
            col += $len;
        }};
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                col += 1;
            }
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    if bytes[j] == b'\n' {
                        return Err(Error::parse(line, col, "unterminated string"));
                    }
                    j += 1;
                }
                if j == bytes.len() {
                    return Err(Error::parse(line, col, "unterminated string"));
                }
                // Both quotes are ASCII, so the slice is on char boundaries.
                let len = j + 1 - i;
                push!(TokenKind::StrLit(&src[start..j]), len);
            }
            b'$' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                if j == start {
                    return Err(Error::parse(line, col, "expected digits after '$'"));
                }
                let n: usize = src[start..j]
                    .parse()
                    .map_err(|_| Error::parse(line, col, "positional out of range"))?;
                let len = j - i;
                push!(TokenKind::Positional(n), len);
            }
            b'0'..=b'9' => {
                let start = i;
                let mut j = i;
                let mut has_dot = false;
                while j < bytes.len()
                    && (bytes[j].is_ascii_digit() || (bytes[j] == b'.' && !has_dot))
                {
                    if bytes[j] == b'.' {
                        // A dot not followed by a digit is a separate token
                        // (e.g. alias.field would not start with digits).
                        if !bytes.get(j + 1).is_some_and(|c| c.is_ascii_digit()) {
                            break;
                        }
                        has_dot = true;
                    }
                    j += 1;
                }
                let text = &src[start..j];
                let kind = if has_dot {
                    TokenKind::DoubleLit(
                        text.parse()
                            .map_err(|_| Error::parse(line, col, format!("bad number {text:?}")))?,
                    )
                } else {
                    TokenKind::IntLit(
                        text.parse()
                            .map_err(|_| Error::parse(line, col, format!("bad number {text:?}")))?,
                    )
                };
                let len = j - start;
                push!(kind, len);
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                let len = j - start;
                push!(TokenKind::Ident(&src[start..j]), len);
            }
            b'=' if bytes.get(i + 1) == Some(&b'=') => push!(TokenKind::Eq, 2),
            b'!' if bytes.get(i + 1) == Some(&b'=') => push!(TokenKind::Neq, 2),
            b'<' if bytes.get(i + 1) == Some(&b'=') => push!(TokenKind::Le, 2),
            b'>' if bytes.get(i + 1) == Some(&b'=') => push!(TokenKind::Ge, 2),
            b':' if bytes.get(i + 1) == Some(&b':') => push!(TokenKind::DoubleColon, 2),
            b'=' => push!(TokenKind::Assign, 1),
            b'<' => push!(TokenKind::Lt, 1),
            b'>' => push!(TokenKind::Gt, 1),
            b'+' => push!(TokenKind::Plus, 1),
            b'-' => push!(TokenKind::Minus, 1),
            b'*' => push!(TokenKind::Star, 1),
            b'/' => push!(TokenKind::Slash, 1),
            b'%' => push!(TokenKind::Percent, 1),
            b'(' => push!(TokenKind::LParen, 1),
            b')' => push!(TokenKind::RParen, 1),
            b'{' => push!(TokenKind::LBrace, 1),
            b'}' => push!(TokenKind::RBrace, 1),
            b',' => push!(TokenKind::Comma, 1),
            b';' => push!(TokenKind::Semi, 1),
            b'.' => push!(TokenKind::Dot, 1),
            b':' => {
                // Single colon appears in schemas: `name:chararray`.
                push!(TokenKind::Ident(":"), 1);
            }
            other => {
                return Err(Error::parse(
                    line,
                    col,
                    format!("unexpected character {:?}", other as char),
                ))
            }
        }
    }
    tokens.push(Token { kind: TokenKind::Eof, line, col });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_statement() {
        let ks = kinds("A = load 'x' as (a, b);");
        assert_eq!(ks[0], TokenKind::Ident("A"));
        assert_eq!(ks[1], TokenKind::Assign);
        assert!(ks[2].is_kw("LOAD"));
        assert_eq!(ks[3], TokenKind::StrLit("x"));
        assert_eq!(*ks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn numbers_and_positionals() {
        let ks = kinds("$0 42 1.5 $12");
        assert_eq!(
            ks,
            vec![
                TokenKind::Positional(0),
                TokenKind::IntLit(42),
                TokenKind::DoubleLit(1.5),
                TokenKind::Positional(12),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        let ks = kinds("== != <= >= < > = + - * / %");
        assert_eq!(ks.len(), 13);
        assert_eq!(ks[0], TokenKind::Eq);
        assert_eq!(ks[6], TokenKind::Assign);
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("A -- this is a comment\nB");
        assert_eq!(ks, vec![TokenKind::Ident("A"), TokenKind::Ident("B"), TokenKind::Eof]);
    }

    #[test]
    fn alias_field_access() {
        let ks = kinds("C.est_revenue");
        assert_eq!(ks[1], TokenKind::Dot);
    }

    #[test]
    fn payloads_borrow_the_source_and_keep_positions() {
        let src = "B = filter A\n  by s == 'k v';";
        let toks = tokenize(src).unwrap();
        let at = |i: usize| (toks[i].kind, toks[i].line, toks[i].col);
        assert_eq!(at(0), (TokenKind::Ident("B"), 1, 1));
        assert_eq!(at(2), (TokenKind::Ident("filter"), 1, 5));
        assert_eq!(at(3), (TokenKind::Ident("A"), 1, 12));
        assert_eq!(at(4), (TokenKind::Ident("by"), 2, 3));
        assert_eq!(at(5), (TokenKind::Ident("s"), 2, 6));
        assert_eq!(at(6), (TokenKind::Eq, 2, 8));
        assert_eq!(at(7), (TokenKind::StrLit("k v"), 2, 11));
        assert_eq!(at(8), (TokenKind::Semi, 2, 16));
        assert_eq!(at(9), (TokenKind::Eof, 2, 17));
        // A payload is a slice of the query text, not a copy of it.
        let TokenKind::StrLit(lit) = toks[7].kind else { unreachable!() };
        assert_eq!(lit.as_ptr(), src[src.find("k v").unwrap()..].as_ptr());
        // Schema colons are one-character identifiers.
        assert_eq!(kinds("a:int")[1], TokenKind::Ident(":"));
    }

    #[test]
    fn errors_carry_position() {
        let err = tokenize("a\n  'oops").unwrap_err();
        assert!(err.to_string().contains("2:3"), "{err}");
        assert!(tokenize("#").is_err());
        assert!(tokenize("$x").is_err());
    }

    #[test]
    fn minus_vs_comment() {
        // A single '-' is an operator; '--' starts a comment.
        assert_eq!(
            kinds("1 - 2"),
            vec![TokenKind::IntLit(1), TokenKind::Minus, TokenKind::IntLit(2), TokenKind::Eof]
        );
    }
}
