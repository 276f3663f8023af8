//! Textual serialization of [`Op`] batches, for replayable test artefacts.
//!
//! The differential testkit (`voronet-testkit`) persists failing op
//! sequences as reproducer files; this module provides the op-level layer
//! of that format: one operation per line, space-separated fields, floats
//! printed with Rust's shortest round-trip representation so a parsed
//! batch is bit-identical to the encoded one.
//!
//! ```
//! use voronet_api::replay;
//! use voronet_api::Op;
//! use voronet_core::ObjectId;
//! use voronet_geom::Point2;
//!
//! let batch = vec![
//!     Op::Insert { position: Point2::new(0.25, 0.75) },
//!     Op::RouteBetween { from: ObjectId(0), to: ObjectId(1) },
//! ];
//! let text = replay::encode_batch(&batch);
//! assert_eq!(replay::parse_batch(&text).unwrap(), batch);
//! ```

use crate::ops::{Op, ServiceOp};
use voronet_core::ObjectId;
use voronet_geom::{Point2, Rect};
use voronet_workloads::{RadiusQuery, RangeQuery};

/// A syntax or arity error while parsing an encoded op batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for ReplayParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ReplayParseError {}

/// Encodes one operation as a single line (no trailing newline).
pub fn encode_op(op: &Op) -> String {
    match *op {
        Op::Insert { position } => format!("insert {} {}", position.x, position.y),
        Op::Remove { id } => format!("remove {}", id.0),
        Op::Route { from, target } => format!("route {} {} {}", from.0, target.x, target.y),
        Op::RouteBetween { from, to } => format!("route_between {} {}", from.0, to.0),
        Op::Range { from, query } => format!(
            "range {} {} {} {} {}",
            from.0, query.rect.min.x, query.rect.min.y, query.rect.max.x, query.rect.max.y
        ),
        Op::Radius { from, query } => format!(
            "radius {} {} {} {}",
            from.0, query.center.x, query.center.y, query.radius
        ),
        Op::Snapshot { id } => format!("snapshot {}", id.0),
        Op::Service(service) => match service {
            ServiceOp::Subscribe { id, region } => format!(
                "subscribe {} {} {} {} {}",
                id.0, region.min.x, region.min.y, region.max.x, region.max.y
            ),
            ServiceOp::Unsubscribe { id } => format!("unsubscribe {}", id.0),
            ServiceOp::Publish {
                from,
                region,
                payload,
            } => format!(
                "publish {} {} {} {} {} {payload}",
                from.0, region.min.x, region.min.y, region.max.x, region.max.y
            ),
            ServiceOp::KvPut { from, key, value } => format!("kv_put {} {key} {value}", from.0),
            ServiceOp::KvGet { from, key } => format!("kv_get {} {key}", from.0),
            ServiceOp::KvDelete { from, key } => format!("kv_delete {} {key}", from.0),
        },
    }
}

/// Encodes a batch, one op per line.  Empty batches encode to the empty
/// string.
pub fn encode_batch(ops: &[Op]) -> String {
    let mut out = String::new();
    for op in ops {
        out.push_str(&encode_op(op));
        out.push('\n');
    }
    out
}

fn err(line: usize, message: impl Into<String>) -> ReplayParseError {
    ReplayParseError {
        line,
        message: message.into(),
    }
}

struct Fields<'a> {
    line: usize,
    verb: &'a str,
    rest: std::str::SplitWhitespace<'a>,
}

impl<'a> Fields<'a> {
    fn u64(&mut self) -> Result<u64, ReplayParseError> {
        let tok = self
            .rest
            .next()
            .ok_or_else(|| err(self.line, format!("{}: missing integer field", self.verb)))?;
        tok.parse().map_err(|e| {
            err(
                self.line,
                format!("{}: bad integer {tok:?}: {e}", self.verb),
            )
        })
    }

    fn f64(&mut self) -> Result<f64, ReplayParseError> {
        let tok = self
            .rest
            .next()
            .ok_or_else(|| err(self.line, format!("{}: missing float field", self.verb)))?;
        tok.parse()
            .map_err(|e| err(self.line, format!("{}: bad float {tok:?}: {e}", self.verb)))
    }

    fn point(&mut self) -> Result<Point2, ReplayParseError> {
        Ok(Point2::new(self.f64()?, self.f64()?))
    }

    fn finish(mut self) -> Result<(), ReplayParseError> {
        match self.rest.next() {
            Some(extra) => Err(err(
                self.line,
                format!("{}: unexpected trailing field {extra:?}", self.verb),
            )),
            None => Ok(()),
        }
    }
}

/// Parses one encoded operation line (as produced by [`encode_op`]).
/// `line` is the 1-based line number used in error messages.
fn parse_op(text: &str, line: usize) -> Result<Op, ReplayParseError> {
    let mut rest = text.split_whitespace();
    let verb = rest
        .next()
        .ok_or_else(|| err(line, "empty op line".to_string()))?;
    let mut f = Fields { line, verb, rest };
    let op = match verb {
        "insert" => Op::Insert {
            position: f.point()?,
        },
        "remove" => Op::Remove {
            id: ObjectId(f.u64()?),
        },
        "route" => Op::Route {
            from: ObjectId(f.u64()?),
            target: f.point()?,
        },
        "route_between" => Op::RouteBetween {
            from: ObjectId(f.u64()?),
            to: ObjectId(f.u64()?),
        },
        "range" => Op::Range {
            from: ObjectId(f.u64()?),
            query: RangeQuery {
                rect: Rect::new(f.point()?, f.point()?),
            },
        },
        "radius" => Op::Radius {
            from: ObjectId(f.u64()?),
            query: RadiusQuery {
                center: f.point()?,
                radius: f.f64()?,
            },
        },
        "snapshot" => Op::Snapshot {
            id: ObjectId(f.u64()?),
        },
        "subscribe" => Op::Service(ServiceOp::Subscribe {
            id: ObjectId(f.u64()?),
            region: Rect::new(f.point()?, f.point()?),
        }),
        "unsubscribe" => Op::Service(ServiceOp::Unsubscribe {
            id: ObjectId(f.u64()?),
        }),
        "publish" => Op::Service(ServiceOp::Publish {
            from: ObjectId(f.u64()?),
            region: Rect::new(f.point()?, f.point()?),
            payload: f.u64()?,
        }),
        "kv_put" => Op::Service(ServiceOp::KvPut {
            from: ObjectId(f.u64()?),
            key: f.u64()?,
            value: f.u64()?,
        }),
        "kv_get" => Op::Service(ServiceOp::KvGet {
            from: ObjectId(f.u64()?),
            key: f.u64()?,
        }),
        "kv_delete" => Op::Service(ServiceOp::KvDelete {
            from: ObjectId(f.u64()?),
            key: f.u64()?,
        }),
        other => return Err(err(line, format!("unknown op verb {other:?}"))),
    };
    f.finish()?;
    Ok(op)
}

/// Parses a whole batch: one op per line, blank lines and `#` comments
/// ignored.
pub fn parse_batch(text: &str) -> Result<Vec<Op>, ReplayParseError> {
    let mut ops = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        ops.push(parse_op(line, i + 1)?);
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> Vec<Op> {
        vec![
            Op::Insert {
                position: Point2::new(0.123456789012345, 1.0 / 3.0),
            },
            Op::Remove { id: ObjectId(42) },
            Op::Route {
                from: ObjectId(7),
                target: Point2::new(1e-12, 0.999999999999),
            },
            Op::RouteBetween {
                from: ObjectId(0),
                to: ObjectId(u64::MAX),
            },
            Op::Range {
                from: ObjectId(3),
                query: RangeQuery {
                    rect: Rect::new(Point2::new(0.1, 0.2), Point2::new(0.30000000000000004, 0.4)),
                },
            },
            Op::Radius {
                from: ObjectId(9),
                query: RadiusQuery {
                    center: Point2::new(0.5, 0.5),
                    radius: 0.05,
                },
            },
            Op::Snapshot { id: ObjectId(11) },
            Op::Service(ServiceOp::Subscribe {
                id: ObjectId(4),
                region: Rect::new(Point2::new(0.25, 0.25), Point2::new(0.75, 0.8)),
            }),
            Op::Service(ServiceOp::Unsubscribe { id: ObjectId(4) }),
            Op::Service(ServiceOp::Publish {
                from: ObjectId(2),
                region: Rect::new(Point2::new(0.1, 0.1), Point2::new(0.2, 0.30000000000000004)),
                payload: u64::MAX,
            }),
            Op::Service(ServiceOp::KvPut {
                from: ObjectId(1),
                key: 0xDEAD_BEEF,
                value: 17,
            }),
            Op::Service(ServiceOp::KvGet {
                from: ObjectId(1),
                key: 0xDEAD_BEEF,
            }),
            Op::Service(ServiceOp::KvDelete {
                from: ObjectId(0),
                key: 0,
            }),
        ]
    }

    #[test]
    fn batches_round_trip_bit_exactly() {
        let batch = sample_batch();
        let text = encode_batch(&batch);
        assert_eq!(parse_batch(&text).unwrap(), batch);
        // Re-encoding the parsed batch is idempotent.
        assert_eq!(encode_batch(&parse_batch(&text).unwrap()), text);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# reproducer header\n\ninsert 0.5 0.5\n  # indented comment\nremove 0\n";
        let ops = parse_batch(text).unwrap();
        assert_eq!(ops.len(), 2);
        assert!(matches!(ops[1], Op::Remove { id: ObjectId(0) }));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse_batch("insert 0.5 0.5\nroute nope 0.1 0.2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bad integer"), "{e}");

        let e = parse_batch("warp 1 2\n").unwrap_err();
        assert!(e.message.contains("unknown op verb"), "{e}");

        let e = parse_batch("remove 1 2\n").unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");

        let e = parse_batch("radius 1 0.5 0.5\n").unwrap_err();
        assert!(e.message.contains("missing float"), "{e}");
    }
}
