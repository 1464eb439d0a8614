//! Recursive-descent parser for the Pig Latin subset.

use crate::ast::{AstExpr, GenItem, Program, RelExpr, Statement};
use crate::lexer::{tokenize, Token, TokenKind};
use restore_common::{Error, FieldType, Result, Value};

/// Parse a full query text.
pub fn parse(src: &str) -> Result<Program> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut statements = Vec::new();
    while !p.at_eof() {
        statements.push(p.statement()?);
    }
    Ok(Program { statements })
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Token<'a> {
        self.tokens[self.pos]
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    fn advance(&mut self) -> Token<'a> {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        let t = self.peek();
        Error::parse(t.line, t.col, msg.into())
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<Token<'a>> {
        if self.peek().kind == kind {
            Ok(self.advance())
        } else {
            Err(self.err(format!("expected {kind:?}, found {:?}", self.peek().kind)))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.peek().kind.is_kw(kw) {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek().kind)))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().kind.is_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        self.ident_str().map(str::to_string)
    }

    /// [`Parser::ident`] for a name the AST does not keep.
    fn ident_str(&mut self) -> Result<&'a str> {
        match self.peek().kind {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn str_lit(&mut self) -> Result<String> {
        match self.peek().kind {
            TokenKind::StrLit(s) => {
                self.advance();
                Ok(s.to_string())
            }
            other => Err(self.err(format!("expected string literal, found {other:?}"))),
        }
    }

    // ---- statements ----

    fn statement(&mut self) -> Result<Statement> {
        if self.peek().kind.is_kw("SPLIT") {
            self.advance();
            let input = self.ident()?;
            self.expect_kw("INTO")?;
            let mut branches = Vec::new();
            loop {
                let alias = self.ident()?;
                self.expect_kw("IF")?;
                branches.push((alias, self.expr()?));
                if matches!(self.peek().kind, TokenKind::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
            if branches.len() < 2 {
                return Err(self.err("SPLIT needs at least two branches"));
            }
            self.expect(TokenKind::Semi)?;
            return Ok(Statement::Split { input, branches });
        }
        if self.peek().kind.is_kw("STORE") {
            self.advance();
            let alias = self.ident()?;
            self.expect_kw("INTO")?;
            let path = self.str_lit()?;
            // Optional `USING name(...)` clause, ignored like Load's.
            if self.eat_kw("USING") {
                self.skip_using_clause()?;
            }
            self.expect(TokenKind::Semi)?;
            return Ok(Statement::Store { alias, path });
        }
        let alias = self.ident()?;
        self.expect(TokenKind::Assign)?;
        let rel = self.rel_expr()?;
        self.expect(TokenKind::Semi)?;
        Ok(Statement::Assign { alias, rel })
    }

    fn rel_expr(&mut self) -> Result<RelExpr> {
        match self.peek().kind {
            k if k.is_kw("LOAD") => self.load(),
            k if k.is_kw("FOREACH") => self.foreach(),
            k if k.is_kw("FILTER") => self.filter(),
            k if k.is_kw("JOIN") => self.join(false),
            k if k.is_kw("COGROUP") => self.join(true),
            k if k.is_kw("GROUP") => self.group(),
            k if k.is_kw("DISTINCT") => {
                self.advance();
                Ok(RelExpr::Distinct { input: self.ident()? })
            }
            k if k.is_kw("UNION") => {
                self.advance();
                let mut inputs = vec![self.ident()?];
                while matches!(self.peek().kind, TokenKind::Comma) {
                    self.advance();
                    inputs.push(self.ident()?);
                }
                Ok(RelExpr::Union { inputs })
            }
            k if k.is_kw("ORDER") => self.order_by(),
            k if k.is_kw("LIMIT") => {
                self.advance();
                let input = self.ident()?;
                match self.advance().kind {
                    TokenKind::IntLit(n) if n >= 0 => Ok(RelExpr::Limit { input, n: n as u64 }),
                    other => Err(self.err(format!("expected limit count, found {other:?}"))),
                }
            }
            other => Err(self.err(format!("expected relational operator, found {other:?}"))),
        }
    }

    fn skip_using_clause(&mut self) -> Result<()> {
        // `USING name` or `USING name('arg', ...)`; loader choice does not
        // affect semantics here.
        self.ident_str()?;
        if matches!(self.peek().kind, TokenKind::LParen) {
            let mut depth = 0usize;
            loop {
                match self.advance().kind {
                    TokenKind::LParen => depth += 1,
                    TokenKind::RParen => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokenKind::Eof => return Err(self.err("unterminated USING clause")),
                    _ => {}
                }
            }
        }
        Ok(())
    }

    fn load(&mut self) -> Result<RelExpr> {
        self.expect_kw("LOAD")?;
        let path = self.str_lit()?;
        if self.eat_kw("USING") {
            self.skip_using_clause()?;
        }
        let mut schema = Vec::new();
        if self.eat_kw("AS") {
            self.expect(TokenKind::LParen)?;
            loop {
                let name = self.ident()?;
                let mut ty = FieldType::Bytearray;
                if matches!(self.peek().kind, TokenKind::Ident(":")) {
                    self.advance();
                    let tyname = self.ident_str()?;
                    ty = FieldType::parse(tyname)
                        .ok_or_else(|| self.err(format!("unknown type {tyname:?}")))?;
                }
                schema.push((name, ty));
                if matches!(self.peek().kind, TokenKind::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        Ok(RelExpr::Load { path, schema })
    }

    fn foreach(&mut self) -> Result<RelExpr> {
        self.expect_kw("FOREACH")?;
        let input = self.ident()?;
        self.expect_kw("GENERATE")?;
        let mut items = Vec::new();
        loop {
            let expr = self.expr()?;
            let rename = if self.eat_kw("AS") { Some(self.ident()?) } else { None };
            items.push(GenItem { expr, rename });
            if matches!(self.peek().kind, TokenKind::Comma) {
                self.advance();
            } else {
                break;
            }
        }
        Ok(RelExpr::Foreach { input, items })
    }

    fn filter(&mut self) -> Result<RelExpr> {
        self.expect_kw("FILTER")?;
        let input = self.ident()?;
        self.expect_kw("BY")?;
        let predicate = self.expr()?;
        Ok(RelExpr::Filter { input, predicate })
    }

    fn join(&mut self, cogroup: bool) -> Result<RelExpr> {
        self.advance(); // JOIN or COGROUP
        let mut inputs = Vec::new();
        loop {
            let alias = self.ident()?;
            self.expect_kw("BY")?;
            let keys = self.key_spec()?;
            inputs.push((alias, keys));
            if matches!(self.peek().kind, TokenKind::Comma) {
                self.advance();
            } else {
                break;
            }
        }
        if inputs.len() < 2 {
            return Err(self.err("JOIN/COGROUP needs at least two inputs"));
        }
        Ok(if cogroup { RelExpr::CoGroup { inputs } } else { RelExpr::Join { inputs } })
    }

    fn group(&mut self) -> Result<RelExpr> {
        self.expect_kw("GROUP")?;
        let input = self.ident()?;
        if self.eat_kw("ALL") {
            return Ok(RelExpr::Group { input, keys: vec![], all: true });
        }
        self.expect_kw("BY")?;
        let keys = self.key_spec()?;
        Ok(RelExpr::Group { input, keys, all: false })
    }

    fn order_by(&mut self) -> Result<RelExpr> {
        self.expect_kw("ORDER")?;
        let input = self.ident()?;
        self.expect_kw("BY")?;
        let mut keys = Vec::new();
        loop {
            let e = self.expr()?;
            let asc = if self.eat_kw("DESC") {
                false
            } else {
                self.eat_kw("ASC");
                true
            };
            keys.push((e, asc));
            if matches!(self.peek().kind, TokenKind::Comma) {
                self.advance();
            } else {
                break;
            }
        }
        Ok(RelExpr::OrderBy { input, keys })
    }

    /// `expr` or `(expr, expr, ...)`.
    fn key_spec(&mut self) -> Result<Vec<AstExpr>> {
        if matches!(self.peek().kind, TokenKind::LParen) {
            self.advance();
            let mut keys = vec![self.expr()?];
            while matches!(self.peek().kind, TokenKind::Comma) {
                self.advance();
                keys.push(self.expr()?);
            }
            self.expect(TokenKind::RParen)?;
            Ok(keys)
        } else {
            Ok(vec![self.expr()?])
        }
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<AstExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.and_expr()?;
        while self.peek().kind.is_kw("OR") {
            self.advance();
            let rhs = self.and_expr()?;
            lhs = AstExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.not_expr()?;
        while self.peek().kind.is_kw("AND") {
            self.advance();
            let rhs = self.not_expr()?;
            lhs = AstExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<AstExpr> {
        if self.peek().kind.is_kw("NOT") {
            self.advance();
            return Ok(AstExpr::Not(Box::new(self.not_expr()?)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<AstExpr> {
        let lhs = self.add_expr()?;
        let op = match self.peek().kind {
            TokenKind::Eq => "==",
            TokenKind::Neq => "!=",
            TokenKind::Lt => "<",
            TokenKind::Le => "<=",
            TokenKind::Gt => ">",
            TokenKind::Ge => ">=",
            _ => {
                // Postfix `IS [NOT] NULL`.
                if self.peek().kind.is_kw("IS") {
                    self.advance();
                    let not = self.eat_kw("NOT");
                    self.expect_kw("NULL")?;
                    return Ok(AstExpr::IsNull(Box::new(lhs), !not));
                }
                return Ok(lhs);
            }
        };
        self.advance();
        let rhs = self.add_expr()?;
        Ok(AstExpr::Cmp(Box::new(lhs), op.to_string(), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => '+',
                TokenKind::Minus => '-',
                _ => break,
            };
            self.advance();
            let rhs = self.mul_expr()?;
            lhs = AstExpr::Arith(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => '*',
                TokenKind::Slash => '/',
                TokenKind::Percent => '%',
                _ => break,
            };
            self.advance();
            let rhs = self.unary_expr()?;
            lhs = AstExpr::Arith(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<AstExpr> {
        if matches!(self.peek().kind, TokenKind::Minus) {
            self.advance();
            return Ok(AstExpr::Neg(Box::new(self.unary_expr()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr> {
        match self.peek().kind {
            TokenKind::IntLit(n) => {
                self.advance();
                Ok(AstExpr::Lit(Value::Int(n)))
            }
            TokenKind::DoubleLit(d) => {
                self.advance();
                Ok(AstExpr::Lit(Value::Double(d)))
            }
            TokenKind::StrLit(s) => {
                self.advance();
                Ok(AstExpr::Lit(Value::str(s)))
            }
            TokenKind::Positional(n) => {
                self.advance();
                Ok(AstExpr::Positional(n))
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) if name.eq_ignore_ascii_case("NULL") => {
                self.advance();
                Ok(AstExpr::Lit(Value::Null))
            }
            TokenKind::Ident(name) => {
                let name = name.to_string();
                self.advance();
                match self.peek().kind {
                    // Function call.
                    TokenKind::LParen => {
                        self.advance();
                        let mut args = Vec::new();
                        if !matches!(self.peek().kind, TokenKind::RParen) {
                            args.push(self.expr()?);
                            while matches!(self.peek().kind, TokenKind::Comma) {
                                self.advance();
                                args.push(self.expr()?);
                            }
                        }
                        self.expect(TokenKind::RParen)?;
                        Ok(AstExpr::Call(name, args))
                    }
                    // Bag field access `alias.field`.
                    TokenKind::Dot => {
                        self.advance();
                        let field = self.ident()?;
                        Ok(AstExpr::BagField(name, field))
                    }
                    // Join-disambiguated field `alias::field`.
                    TokenKind::DoubleColon => {
                        self.advance();
                        let field = self.ident()?;
                        Ok(AstExpr::QualifiedField(name, field))
                    }
                    _ => Ok(AstExpr::Field(name)),
                }
            }
            other => Err(self.err(format!("unexpected token {other:?} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query_q1() {
        let q = "
            A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
            B = foreach A generate user, est_revenue;
            alpha = load 'users' as (name, phone, address, city);
            beta = foreach alpha generate name;
            C = join beta by name, B by user;
            store C into 'L2_out';
        ";
        let p = parse(q).unwrap();
        assert_eq!(p.statements.len(), 6);
        match &p.statements[4] {
            Statement::Assign { alias, rel: RelExpr::Join { inputs } } => {
                assert_eq!(alias, "C");
                assert_eq!(inputs.len(), 2);
                assert_eq!(inputs[0].0, "beta");
                assert_eq!(inputs[0].1, vec![AstExpr::Field("name".into())]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_group_and_aggregate() {
        let q = "
            D = group C by $0;
            E = foreach D generate group, SUM(C.est_revenue);
            store E into 'L3_out';
        ";
        let p = parse(q).unwrap();
        match &p.statements[0] {
            Statement::Assign { rel: RelExpr::Group { keys, all, .. }, .. } => {
                assert_eq!(keys, &vec![AstExpr::Positional(0)]);
                assert!(!all);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &p.statements[1] {
            Statement::Assign { rel: RelExpr::Foreach { items, .. }, .. } => {
                assert_eq!(items[0].expr, AstExpr::Field("group".into()));
                assert_eq!(
                    items[1].expr,
                    AstExpr::Call(
                        "SUM".into(),
                        vec![AstExpr::BagField("C".into(), "est_revenue".into())]
                    )
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_group_all() {
        let p = parse("G = group A all;").unwrap();
        match &p.statements[0] {
            Statement::Assign { rel: RelExpr::Group { all, keys, .. }, .. } => {
                assert!(all);
                assert!(keys.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_filter_with_connectives() {
        let p = parse("B = filter A by (x > 3 and y == 'k') or not z;").unwrap();
        match &p.statements[0] {
            Statement::Assign { rel: RelExpr::Filter { predicate, .. }, .. } => {
                assert!(matches!(predicate, AstExpr::Or(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_distinct_union_order_limit() {
        let q = "
            B = distinct A;
            C = union A, B;
            D = order C by user desc, ts;
            E = limit D 10;
        ";
        let p = parse(q).unwrap();
        assert!(matches!(p.statements[0], Statement::Assign { rel: RelExpr::Distinct { .. }, .. }));
        match &p.statements[2] {
            Statement::Assign { rel: RelExpr::OrderBy { keys, .. }, .. } => {
                assert!(!keys[0].1); // desc
                assert!(keys[1].1); // implicit asc
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            p.statements[3],
            Statement::Assign { rel: RelExpr::Limit { n: 10, .. }, .. }
        ));
    }

    #[test]
    fn parses_cogroup_and_multi_keys() {
        let p = parse("C = cogroup A by (u, t), B by (name, ts);").unwrap();
        match &p.statements[0] {
            Statement::Assign { rel: RelExpr::CoGroup { inputs }, .. } => {
                assert_eq!(inputs[0].1.len(), 2);
                assert_eq!(inputs[1].1.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_load_with_using_and_types() {
        let p = parse("A = load '/d' using PigStorage('\\t') as (a:int, b:chararray, c:double);")
            .unwrap();
        match &p.statements[0] {
            Statement::Assign { rel: RelExpr::Load { path, schema }, .. } => {
                assert_eq!(path, "/d");
                assert_eq!(schema[0], ("a".into(), FieldType::Int));
                assert_eq!(schema[1], ("b".into(), FieldType::Chararray));
                assert_eq!(schema[2], ("c".into(), FieldType::Double));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_is_null() {
        let p = parse("B = filter A by x is not null;").unwrap();
        match &p.statements[0] {
            Statement::Assign { rel: RelExpr::Filter { predicate, .. }, .. } => {
                assert_eq!(
                    predicate,
                    &AstExpr::IsNull(Box::new(AstExpr::Field("x".into())), false)
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse("A = load ;").unwrap_err();
        assert!(err.to_string().contains("expected string literal"), "{err}");
        assert!(parse("A = join B by x;").is_err()); // single-input join
        assert!(parse("A = limit B 'x';").is_err());
        assert!(parse("store A;").is_err());
    }

    #[test]
    fn error_texts_are_pinned() {
        // Captured before tokens borrowed the query text: a `&str`
        // payload must print exactly as the `String` one did.
        let cases = [
            ("B = filter A by ;", "parse error at 1:17: unexpected token Semi in expression"),
            (
                "store 'x' into '/y';",
                "parse error at 1:7: expected identifier, found StrLit(\"x\")",
            ),
            ("A = load ;", "parse error at 1:10: expected string literal, found Semi"),
            ("A = load '/x\n;", "parse error at 1:10: unterminated string"),
            (
                "A = limit B 99999999999999999999;",
                "parse error at 1:13: bad number \"99999999999999999999\"",
            ),
            (
                "A = frobnicate B;",
                "parse error at 1:5: expected relational operator, found Ident(\"frobnicate\")",
            ),
        ];
        for (query, want) in cases {
            assert_eq!(parse(query).unwrap_err().to_string(), want, "{query:?}");
        }
    }

    #[test]
    fn parses_split_statement() {
        let p = parse("split A into B if x > 1, C if x <= 1;").unwrap();
        match &p.statements[0] {
            Statement::Split { input, branches } => {
                assert_eq!(input, "A");
                assert_eq!(branches.len(), 2);
                assert_eq!(branches[0].0, "B");
                assert_eq!(branches[1].0, "C");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Single-branch split is rejected.
        assert!(parse("split A into B if x > 1;").is_err());
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("a = LOAD '/x' AS (f); STORE a INTO '/y';").is_ok());
        assert!(parse("a = LoAd '/x'; sToRe a InTo '/y';").is_ok());
    }
}
