//! Replayable reproducer files (`.ron`-style) for diverging cases.
//!
//! A reproducer is a single self-contained text file holding a
//! [`FuzzCase`]: overlay parameters and the full (usually shrunk) op
//! script.  Floats are printed with Rust's shortest round-trip
//! representation, so parsing a reproducer yields a bit-identical case.
//! Files live under `tests/reproducers/`; CI replays every one and fails
//! while any of them still diverges.
//!
//! ```text
//! // voronet-testkit reproducer v1
//! // divergence: [result:cluster] at op 18: …
//! (
//!     seed: 2027,
//!     nmax: 400,
//!     round: 64,
//!     script: [
//!         insert(0.5, 0.25),
//!         route(0, 1),
//!         range(2, 0.1, 0.2, 0.3, 0.4),
//!         radius(1, 0.5, 0.5, 0.2),
//!         remove(3),
//!         snapshot(0),
//!     ],
//! )
//! ```

use crate::grammar::FuzzCase;
use crate::harness::Divergence;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use voronet_geom::{Point2, Rect};
use voronet_workloads::{RadiusQuery, RangeQuery, WorkloadOp};

/// A syntax error while parsing a reproducer file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReproError {
    /// What went wrong, with enough token context to locate it.
    pub message: String,
}

impl std::fmt::Display for ReproError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "reproducer parse error: {}", self.message)
    }
}

impl std::error::Error for ReproError {}

pub(crate) fn perr(message: impl Into<String>) -> ReproError {
    ReproError {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

pub(crate) fn encode_op(op: &WorkloadOp) -> String {
    match *op {
        WorkloadOp::Insert { position } => format!("insert({}, {})", position.x, position.y),
        WorkloadOp::Remove { index } => format!("remove({index})"),
        WorkloadOp::Route { from, to } => format!("route({from}, {to})"),
        WorkloadOp::Range { from, query } => format!(
            "range({from}, {}, {}, {}, {})",
            query.rect.min.x, query.rect.min.y, query.rect.max.x, query.rect.max.y
        ),
        WorkloadOp::Radius { from, query } => format!(
            "radius({from}, {}, {}, {})",
            query.center.x, query.center.y, query.radius
        ),
        WorkloadOp::Snapshot { index } => format!("snapshot({index})"),
        WorkloadOp::Subscribe { index, region } => format!(
            "subscribe({index}, {}, {}, {}, {})",
            region.min.x, region.min.y, region.max.x, region.max.y
        ),
        WorkloadOp::Unsubscribe { index } => format!("unsubscribe({index})"),
        WorkloadOp::Publish {
            from,
            region,
            payload,
        } => format!(
            "publish({from}, {}, {}, {}, {}, {payload})",
            region.min.x, region.min.y, region.max.x, region.max.y
        ),
        WorkloadOp::KvPut { from, key, value } => format!("kv_put({from}, {key}, {value})"),
        WorkloadOp::KvGet { from, key } => format!("kv_get({from}, {key})"),
        WorkloadOp::KvDelete { from, key } => format!("kv_delete({from}, {key})"),
    }
}

/// Serializes a case (optionally annotating the divergence it triggers).
pub fn encode_case(case: &FuzzCase, divergence: Option<&Divergence>) -> String {
    let mut out = String::new();
    out.push_str("// voronet-testkit reproducer v1\n");
    if let Some(d) = divergence {
        for line in d.to_string().lines() {
            let _ = writeln!(out, "// divergence: {line}");
        }
    }
    let _ = writeln!(out, "(");
    let _ = writeln!(out, "    seed: {},", case.seed);
    let _ = writeln!(out, "    nmax: {},", case.nmax);
    let _ = writeln!(out, "    round: {},", case.round);
    let _ = writeln!(out, "    script: [");
    for op in &case.script {
        let _ = writeln!(out, "        {},", encode_op(op));
    }
    let _ = writeln!(out, "    ],");
    out.push_str(")\n");
    out
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    Ident(String),
    Num(String),
    Punct(char),
}

impl std::fmt::Display for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Num(s) => write!(f, "{s}"),
            Token::Punct(c) => write!(f, "{c}"),
        }
    }
}

pub(crate) fn tokenize(text: &str) -> Result<Vec<Token>, ReproError> {
    let mut tokens = Vec::new();
    let mut chars = text.char_indices().peekable();
    while let Some(&(i, c)) = chars.peek() {
        match c {
            '/' => {
                // `//` line comment.
                let rest = &text[i..];
                if rest.starts_with("//") {
                    while let Some(&(_, c)) = chars.peek() {
                        if c == '\n' {
                            break;
                        }
                        chars.next();
                    }
                } else {
                    return Err(perr(format!("stray '/' at byte {i}")));
                }
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '(' | ')' | '[' | ']' | ':' | ',' => {
                tokens.push(Token::Punct(c));
                chars.next();
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(s));
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' || c == '.' => {
                let mut s = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    // Accepts integers, decimals and scientific notation.
                    if c.is_ascii_digit()
                        || c == '.'
                        || c == '-'
                        || c == '+'
                        || c == 'e'
                        || c == 'E'
                    {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Num(s));
            }
            other => return Err(perr(format!("unexpected character {other:?} at byte {i}"))),
        }
    }
    Ok(tokens)
}

pub(crate) struct Parser {
    pub(crate) tokens: Vec<Token>,
    pub(crate) pos: usize,
}

impl Parser {
    pub(crate) fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    pub(crate) fn next(&mut self) -> Result<Token, ReproError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| perr("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    pub(crate) fn punct(&mut self, want: char) -> Result<(), ReproError> {
        match self.next()? {
            Token::Punct(c) if c == want => Ok(()),
            other => Err(perr(format!("expected {want:?}, found {other}"))),
        }
    }

    pub(crate) fn ident(&mut self) -> Result<String, ReproError> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(perr(format!("expected identifier, found {other}"))),
        }
    }

    pub(crate) fn key(&mut self, want: &str) -> Result<(), ReproError> {
        let got = self.ident()?;
        if got != want {
            return Err(perr(format!("expected field {want:?}, found {got:?}")));
        }
        self.punct(':')
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ReproError> {
        match self.next()? {
            Token::Num(s) => s
                .parse()
                .map_err(|e| perr(format!("bad integer {s:?}: {e}"))),
            other => Err(perr(format!("expected integer, found {other}"))),
        }
    }

    pub(crate) fn usize(&mut self) -> Result<usize, ReproError> {
        Ok(self.u64()? as usize)
    }

    pub(crate) fn f64(&mut self) -> Result<f64, ReproError> {
        match self.next()? {
            Token::Num(s) => s.parse().map_err(|e| perr(format!("bad float {s:?}: {e}"))),
            other => Err(perr(format!("expected float, found {other}"))),
        }
    }

    /// Four comma-separated floats `ax, ay, bx, by` forming a rectangle.
    fn rect(&mut self) -> Result<Rect, ReproError> {
        let ax = self.f64()?;
        self.punct(',')?;
        let ay = self.f64()?;
        self.punct(',')?;
        let bx = self.f64()?;
        self.punct(',')?;
        let by = self.f64()?;
        Ok(Rect::new(Point2::new(ax, ay), Point2::new(bx, by)))
    }

    pub(crate) fn op(&mut self) -> Result<WorkloadOp, ReproError> {
        let verb = self.ident()?;
        self.punct('(')?;
        let op = match verb.as_str() {
            "insert" => {
                let x = self.f64()?;
                self.punct(',')?;
                let y = self.f64()?;
                WorkloadOp::Insert {
                    position: Point2::new(x, y),
                }
            }
            "remove" => WorkloadOp::Remove {
                index: self.usize()?,
            },
            "route" => {
                let from = self.usize()?;
                self.punct(',')?;
                let to = self.usize()?;
                WorkloadOp::Route { from, to }
            }
            "range" => {
                let from = self.usize()?;
                self.punct(',')?;
                let ax = self.f64()?;
                self.punct(',')?;
                let ay = self.f64()?;
                self.punct(',')?;
                let bx = self.f64()?;
                self.punct(',')?;
                let by = self.f64()?;
                WorkloadOp::Range {
                    from,
                    query: RangeQuery {
                        rect: Rect::new(Point2::new(ax, ay), Point2::new(bx, by)),
                    },
                }
            }
            "radius" => {
                let from = self.usize()?;
                self.punct(',')?;
                let cx = self.f64()?;
                self.punct(',')?;
                let cy = self.f64()?;
                self.punct(',')?;
                let r = self.f64()?;
                WorkloadOp::Radius {
                    from,
                    query: RadiusQuery {
                        center: Point2::new(cx, cy),
                        radius: r,
                    },
                }
            }
            "snapshot" => WorkloadOp::Snapshot {
                index: self.usize()?,
            },
            "subscribe" => {
                let index = self.usize()?;
                self.punct(',')?;
                let region = self.rect()?;
                WorkloadOp::Subscribe { index, region }
            }
            "unsubscribe" => WorkloadOp::Unsubscribe {
                index: self.usize()?,
            },
            "publish" => {
                let from = self.usize()?;
                self.punct(',')?;
                let region = self.rect()?;
                self.punct(',')?;
                let payload = self.u64()?;
                WorkloadOp::Publish {
                    from,
                    region,
                    payload,
                }
            }
            "kv_put" => {
                let from = self.usize()?;
                self.punct(',')?;
                let key = self.u64()?;
                self.punct(',')?;
                let value = self.u64()?;
                WorkloadOp::KvPut { from, key, value }
            }
            "kv_get" => {
                let from = self.usize()?;
                self.punct(',')?;
                let key = self.u64()?;
                WorkloadOp::KvGet { from, key }
            }
            "kv_delete" => {
                let from = self.usize()?;
                self.punct(',')?;
                let key = self.u64()?;
                WorkloadOp::KvDelete { from, key }
            }
            other => return Err(perr(format!("unknown script op {other:?}"))),
        };
        self.punct(')')?;
        Ok(op)
    }
}

/// Parses a reproducer back into the case it encodes.
pub fn parse_case(text: &str) -> Result<FuzzCase, ReproError> {
    let mut p = Parser {
        tokens: tokenize(text)?,
        pos: 0,
    };
    p.punct('(')?;
    p.key("seed")?;
    let seed = p.u64()?;
    p.punct(',')?;
    p.key("nmax")?;
    let nmax = p.usize()?;
    p.punct(',')?;
    p.key("round")?;
    let round = p.usize()?;
    p.punct(',')?;
    p.key("script")?;
    p.punct('[')?;
    let mut script = Vec::new();
    loop {
        match p.peek() {
            Some(Token::Punct(']')) => {
                p.next()?;
                break;
            }
            Some(_) => {
                script.push(p.op()?);
                // Trailing comma is optional before `]`.
                if let Some(Token::Punct(',')) = p.peek() {
                    p.next()?;
                }
            }
            None => return Err(perr("unterminated script list")),
        }
    }
    p.punct(',')?;
    p.punct(')')?;
    if p.peek().is_some() {
        return Err(perr(format!(
            "trailing tokens after case: {}",
            p.next().expect("peeked")
        )));
    }
    Ok(FuzzCase {
        seed,
        nmax,
        round,
        script,
    })
}

/// Writes a reproducer under `dir` (created if missing) and returns its
/// path.  File names encode the seed and shrunk length; when that name is
/// already taken (two divergences from the same seed shrinking to the
/// same length), a numeric suffix is appended so an existing witness is
/// never overwritten.
pub fn write_reproducer(
    dir: &Path,
    case: &FuzzCase,
    divergence: Option<&Divergence>,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let stem = format!("repro-seed{}-{}ops", case.seed, case.script.len());
    let mut path = dir.join(format!("{stem}.ron"));
    let mut n = 1usize;
    while path.exists() {
        n += 1;
        path = dir.join(format!("{stem}-{n}.ron"));
    }
    std::fs::write(&path, encode_case(case, divergence))?;
    Ok(path)
}

/// Reads a reproducer file.
pub fn read_reproducer(path: &Path) -> Result<FuzzCase, ReproError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| perr(format!("cannot read {}: {e}", path.display())))?;
    parse_case(&text)
}

/// All reproducer files (`*.ron`) under `dir`, sorted by name; an absent
/// directory holds none.
pub fn list_reproducers(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ron"))
        .collect();
    files.sort();
    files
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{generate_case, FuzzSpec};

    #[test]
    fn cases_round_trip_bit_exactly() {
        for seed in [1u64, 2, 3] {
            let case = generate_case(&FuzzSpec::smoke(seed));
            let text = encode_case(&case, None);
            let parsed = parse_case(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(parsed, case, "seed {seed}");
            // Idempotent re-encoding.
            assert_eq!(encode_case(&parsed, None), text, "seed {seed}");
        }
    }

    #[test]
    fn divergence_annotations_parse_as_comments() {
        let case = generate_case(&FuzzSpec {
            warmup: 4,
            ops: 8,
            ..FuzzSpec::smoke(9)
        });
        let d = Divergence {
            op_index: Some(3),
            kind: "result:cluster".to_string(),
            detail: "hops diverge".to_string(),
        };
        let text = encode_case(&case, Some(&d));
        assert!(text.contains("// divergence"));
        assert_eq!(parse_case(&text).unwrap(), case);
    }

    #[test]
    fn files_round_trip_through_the_filesystem() {
        let dir = std::env::temp_dir().join(format!("voronet-testkit-{}", std::process::id()));
        let case = generate_case(&FuzzSpec {
            warmup: 4,
            ops: 12,
            ..FuzzSpec::smoke(5)
        });
        let path = write_reproducer(&dir, &case, None).unwrap();
        assert!(list_reproducers(&dir).contains(&path));
        assert_eq!(read_reproducer(&path).unwrap(), case);
        // A second find with the same seed and length must not clobber
        // the first witness.
        let second = write_reproducer(&dir, &case, None).unwrap();
        assert_ne!(second, path, "colliding names must be disambiguated");
        assert_eq!(list_reproducers(&dir).len(), 2);
        assert_eq!(read_reproducer(&second).unwrap(), case);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_errors_are_descriptive() {
        assert!(parse_case("(seed: x)")
            .unwrap_err()
            .message
            .contains("expected integer"));
        assert!(parse_case("").unwrap_err().message.contains("end of input"));
        let case = generate_case(&FuzzSpec {
            warmup: 2,
            ops: 4,
            ..FuzzSpec::smoke(1)
        });
        let bad = encode_case(&case, None).replace("insert", "teleport");
        assert!(parse_case(&bad)
            .unwrap_err()
            .message
            .contains("unknown script op"));
    }
}
