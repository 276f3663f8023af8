//! Frame layer: the fixed binary header every wire message starts with,
//! the typed decode errors, and the bounds-checked cursor the payload
//! codecs read through.
//!
//! A frame is `header ‖ payload`:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  = b"VN"
//! 2       1     version = WIRE_VERSION
//! 3       1     kind   (see `wire::WireMsg` discriminants)
//! 4       8     from   (sender peer / node id, little-endian u64)
//! 12      8     to     (destination peer / node id, little-endian u64)
//! 20      4     len    (payload length in bytes, little-endian u32)
//! 24      len   payload
//! ```
//!
//! Transports parse only this header (routing, reassembly, sanity);
//! [`crate::wire`] parses payloads.  All integers are little-endian and
//! `f64` values travel as their IEEE-754 bit pattern, so encode→decode is
//! bit-exact.  Decoding is total: every malformed input yields a typed
//! [`DecodeError`], never a panic — fuzzed in `voronet-testkit`.

use std::fmt;

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = *b"VN";

/// Current wire-format version.  Bump on any incompatible layout change;
/// decoders reject other versions with
/// [`DecodeError::UnsupportedVersion`] instead of guessing.
pub const WIRE_VERSION: u8 = 2;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 24;

/// Largest whole frame (header + payload) a transport accepts: the
/// classical loopback-UDP datagram budget, so every frame fits in one
/// datagram.
pub const MAX_FRAME_LEN: usize = 65_507;

/// Largest payload a frame may carry.
pub const MAX_PAYLOAD_LEN: usize = MAX_FRAME_LEN - HEADER_LEN;

/// Why a frame or payload failed to decode.  Every variant is a normal
/// value — decoding never panics on adversarial input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes available than the field being read requires.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were available.
        have: usize,
    },
    /// The first two bytes are not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// The kind byte names no known message.
    UnknownKind(u8),
    /// The header's declared payload length disagrees with the bytes
    /// actually present.
    LengthMismatch {
        /// Length declared in the header.
        declared: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD_LEN`].
    Oversized {
        /// Declared length.
        len: usize,
    },
    /// The payload decoded cleanly but left unconsumed bytes.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// An embedded tag byte (e.g. a route purpose) has no meaning.
    BadTag {
        /// Which field carried the tag.
        field: &'static str,
        /// The offending value.
        value: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            DecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            DecodeError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            DecodeError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "length mismatch: header declares {declared}, payload has {actual}"
                )
            }
            DecodeError::Oversized { len } => {
                write!(
                    f,
                    "payload of {len} bytes exceeds the {MAX_PAYLOAD_LEN}-byte budget"
                )
            }
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete payload")
            }
            DecodeError::BadTag { field, value } => {
                write!(f, "invalid {field} tag {value}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The parsed fixed header of one frame.  `kind` is the raw byte; the
/// payload layer maps it to a message variant (and reports
/// [`DecodeError::UnknownKind`] for values it does not know).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Raw message-kind byte.
    pub kind: u8,
    /// Sender peer / node id.
    pub from: u64,
    /// Destination peer / node id.
    pub to: u64,
    /// Payload length in bytes.
    pub len: u32,
}

impl FrameHeader {
    /// Parses the header at the start of `bytes`, validating magic,
    /// version and the payload-length budget (but not kind — that is the
    /// payload layer's job, so transports can forward unknown kinds).
    pub fn decode(bytes: &[u8]) -> Result<FrameHeader, DecodeError> {
        if bytes.len() < HEADER_LEN {
            return Err(DecodeError::Truncated {
                needed: HEADER_LEN,
                have: bytes.len(),
            });
        }
        if bytes[0..2] != MAGIC {
            return Err(DecodeError::BadMagic([bytes[0], bytes[1]]));
        }
        if bytes[2] != WIRE_VERSION {
            return Err(DecodeError::UnsupportedVersion(bytes[2]));
        }
        let kind = bytes[3];
        let from = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
        let to = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
        if len as usize > MAX_PAYLOAD_LEN {
            return Err(DecodeError::Oversized { len: len as usize });
        }
        Ok(FrameHeader {
            kind,
            from,
            to,
            len,
        })
    }

    /// Appends the encoded header to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&MAGIC);
        buf.push(WIRE_VERSION);
        buf.push(self.kind);
        buf.extend_from_slice(&self.from.to_le_bytes());
        buf.extend_from_slice(&self.to.to_le_bytes());
        buf.extend_from_slice(&self.len.to_le_bytes());
    }
}

/// Bounds-checked little-endian cursor over a payload slice.  Every read
/// either yields a value or a [`DecodeError::Truncated`]; nothing indexes
/// past the end.
#[derive(Debug, Clone, Copy)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts a cursor at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        WireReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Borrows the next `n` bytes without copying.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Asserts the payload is fully consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                extra: self.remaining(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = FrameHeader {
            kind: 7,
            from: u64::MAX - 3,
            to: 42,
            len: 1_000,
        };
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        assert_eq!(FrameHeader::decode(&buf).unwrap(), h);
    }

    #[test]
    fn header_rejects_garbage() {
        assert!(matches!(
            FrameHeader::decode(&[0u8; 3]),
            Err(DecodeError::Truncated { .. })
        ));
        let mut buf = Vec::new();
        FrameHeader {
            kind: 0,
            from: 0,
            to: 0,
            len: 0,
        }
        .encode_into(&mut buf);
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            FrameHeader::decode(&bad_magic),
            Err(DecodeError::BadMagic(_))
        ));
        let mut bad_version = buf.clone();
        bad_version[2] = 99;
        assert_eq!(
            FrameHeader::decode(&bad_version),
            Err(DecodeError::UnsupportedVersion(99))
        );
        let mut oversized = buf;
        oversized[20..24].copy_from_slice(&(MAX_PAYLOAD_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(
            FrameHeader::decode(&oversized),
            Err(DecodeError::Oversized { .. })
        ));
    }

    #[test]
    fn reader_is_bounds_checked() {
        let mut r = WireReader::new(&[1, 2, 3]);
        assert_eq!(r.bytes(1).unwrap(), &[1]);
        assert!(matches!(r.bytes(4), Err(DecodeError::Truncated { .. })));
        assert_eq!(r.remaining(), 2);
        assert!(r.finish().is_err());
        assert_eq!(r.bytes(2).unwrap(), &[2, 3]);
        r.finish().unwrap();
    }
}
