//! Compiled templates: a query compiled once per shape, its output
//! paths bound per submission.
//!
//! A served script usually comes back unchanged apart from where it
//! stores. Compilation reads only the text, the workflow prefix and the
//! canonicalize switch, and every stage treats a path as an opaque
//! string (two Stores to one path stay two Stores; temporaries are
//! `{prefix}/tmp-N`, numbered by the plan, not by the path). So the
//! workflow compiled from a text whose store paths are replaced by
//! numbered marks, under a marked prefix, is the workflow of every text
//! of that shape once the real paths are put back:
//!
//! ```text
//!   text      store R into '/out/c0/p7';      prefix /wf/c0/p7/L3
//!   key       store R into '\u{1}0';          (literals: ["/out/c0/p7"])
//!   template  Store \u{1}0, Store/Load \u{1}/tmp-0, typed_outputs [\u{1}/tmp-0]
//!   bind      Store /out/c0/p7, Store/Load /wf/c0/p7/L3/tmp-0, ...
//! ```
//!
//! [`Key::of`] builds the key; [`compile`](crate::compile) or
//! [`compile_canonical`](crate::compile_canonical) of [`Key::masked`]
//! under [`PREFIX`] builds the template; [`bind`] puts the paths back.
//! `bind(template, key.literals(), prefix)` equals compiling the text
//! under `prefix` (`tests/prop_canon.rs` holds the two to it).

use crate::lexer::{tokenize, TokenKind};
use crate::mr_compiler::CompiledWorkflow;
use crate::physical::{NodeId, PhysicalOp};
use std::fmt::Write;

/// The character a mark starts with. A text that contains it has no key.
pub const MARK: char = '\u{1}';

/// The workflow prefix a template is compiled under: its temporaries
/// are `{MARK}/tmp-N`, told apart from a literal's mark (`{MARK}{i}`)
/// by the `/`.
pub const PREFIX: &str = "\u{1}";

/// A query text with the literal of each `store <alias> into '…'`
/// replaced by a numbered mark. Equal literals share a number, so the
/// masked text keeps which Stores write the same path.
#[derive(Debug, Clone, PartialEq)]
pub struct Key<'a> {
    masked: String,
    literals: Vec<&'a str>,
}

impl<'a> Key<'a> {
    /// The key of `text` compiled under `prefix`, or `None` when the text
    /// must be compiled directly: it does not lex, it contains [`MARK`],
    /// or a literal names one of `prefix`'s temporaries (a Load of
    /// `{prefix}/tmp-N` shares a scan with the temporary it names only
    /// when both carry the real prefix).
    pub fn of(text: &'a str, prefix: &str) -> Option<Key<'a>> {
        if text.contains(MARK) {
            return None;
        }
        let tokens = tokenize(text).ok()?;
        let mut masked = String::with_capacity(text.len());
        let mut literals: Vec<&'a str> = Vec::new();
        let mut copied = 0;
        for (i, token) in tokens.iter().enumerate() {
            let TokenKind::StrLit(lit) = token.kind else { continue };
            if lit.strip_prefix(prefix).is_some_and(|rest| rest.starts_with("/tmp-")) {
                return None;
            }
            let stored = i >= 3
                && tokens[i - 3].kind.is_kw("store")
                && matches!(tokens[i - 2].kind, TokenKind::Ident(_))
                && tokens[i - 1].kind.is_kw("into");
            if !stored {
                continue;
            }
            // A payload is a slice of `text`: its offset is where it starts.
            let start = lit.as_ptr() as usize - text.as_ptr() as usize;
            let n = literals.iter().position(|&l| l == lit).unwrap_or_else(|| {
                literals.push(lit);
                literals.len() - 1
            });
            masked.push_str(&text[copied..start]);
            write!(masked, "{MARK}{n}").expect("writing to a String");
            copied = start + lit.len();
        }
        masked.push_str(&text[copied..]);
        Some(Key { masked, literals })
    }

    /// The text to compile under [`PREFIX`] into the template.
    pub fn masked(&self) -> &str {
        &self.masked
    }

    /// The store literals, literal `i` standing where mark `i` does.
    pub fn literals(&self) -> &[&'a str] {
        &self.literals
    }
}

/// `template` with this submission's paths in place of its marks: each
/// Load and Store path and each typed output that starts with [`MARK`]
/// gets `literals[i]` for mark `i`, or `prefix` for the marked prefix.
pub fn bind(template: &CompiledWorkflow, literals: &[&str], prefix: &str) -> CompiledWorkflow {
    let resolve = |path: &mut String| {
        let Some(rest) = path.strip_prefix(MARK) else { return };
        *path = if rest.starts_with('/') {
            let mut bound = String::with_capacity(prefix.len() + rest.len());
            bound.push_str(prefix);
            bound.push_str(rest);
            bound
        } else {
            let i: usize = rest.parse().expect("a template's marks are numbered");
            literals[i].to_string()
        };
    };
    let mut wf = template.clone();
    for job in &mut wf.jobs {
        for id in (0..job.plan.len() as u32).map(NodeId) {
            if let PhysicalOp::Load { path } | PhysicalOp::Store { path } =
                &mut job.plan.node_mut(id).op
            {
                resolve(path);
            }
        }
        job.typed_outputs.iter_mut().for_each(resolve);
    }
    wf
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: &str = "A = load '/d' as (u, v:int);
                     G = group A by u;
                     S = foreach G generate group, SUM(A.v);
                     store S into '/o1';
                     F = filter A by u == '/o1';
                     STORE F INTO '/o2';
                     store S into '/o1';";

    #[test]
    fn store_literals_become_numbered_marks() {
        let key = Key::of(Q, "/wf").unwrap();
        assert_eq!(key.literals(), ["/o1", "/o2"]);
        let masked = key.masked();
        assert_eq!(masked.matches("into '\u{1}0'").count(), 2, "{masked}");
        assert!(masked.contains("INTO '\u{1}1'"), "{masked}");
        // A Load's literal and an expression's literal stay as written.
        assert!(masked.contains("load '/d'") && masked.contains("u == '/o1'"), "{masked}");
        // Another output path is the same key.
        let other = Q.replace("into '/o1'", "into '/x/elsewhere'").replace("'/o2'", "'/y'");
        assert_eq!(Key::of(&other, "/p").unwrap().masked(), masked);
    }

    #[test]
    fn bind_equals_the_direct_compile() {
        let key = Key::of(Q, "/wf/q").unwrap();
        let template = crate::compile(key.masked(), PREFIX).unwrap();
        assert!(template.tmp_paths().all(|p| p.starts_with(MARK)));
        let bound = bind(&template, key.literals(), "/wf/q");
        assert_eq!(bound, crate::compile(Q, "/wf/q").unwrap());
    }

    #[test]
    fn some_texts_have_no_key() {
        assert!(Key::of("store A into '\u{1}0';", "/wf").is_none(), "a mark in the text");
        assert!(Key::of("A = load 'unterminated", "/wf").is_none(), "does not lex");
        let reads_a_temporary = "A = load '/wf/tmp-0' as (x); store A into '/o';";
        assert!(Key::of(reads_a_temporary, "/wf").is_none());
        assert!(Key::of(reads_a_temporary, "/other").is_some());
        // A text that lexes but does not parse still has a key; its
        // masked compile fails and the caller compiles it directly.
        assert!(Key::of("store A into 'x'", "/wf").is_some());
    }
}
