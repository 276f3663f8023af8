//! The unified error taxonomy of the overlay API.
//!
//! Every fallible operation of the overlay — the concrete [`crate::VoroNet`]
//! methods and the backend-agnostic `Overlay` trait (crate `voronet-api`)
//! alike — returns one taxonomy covering every engine (including failure
//! modes only the message-level cluster has, such as an operation lost to
//! the network): [`VoronetError`], a machine-matchable [`ErrorKind`] plus
//! an optional human-readable context string.

use crate::object::ObjectId;

/// Machine-matchable classification of an overlay failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorKind {
    /// The referenced object is not (or no longer) part of the overlay.
    UnknownObject(ObjectId),
    /// An object already occupies exactly the requested position.
    DuplicatePosition(ObjectId),
    /// The position lies outside the overlay's attribute domain.
    OutsideDomain,
    /// The position has a non-finite coordinate.
    NotFinite,
    /// The named bootstrap object does not exist.
    UnknownBootstrap(ObjectId),
    /// A message-level operation never completed: its protocol messages
    /// were lost to the network (loss, partition, dead letters) until its
    /// retry budget ran out.
    OperationLost,
    /// A structural invariant of the overlay does not hold (the context
    /// carries the diagnostic).
    InvariantViolation,
    /// The engine does not implement the requested operation family
    /// (e.g. a service op applied to a bare engine without the service
    /// layer wrapped around it).
    Unsupported,
    /// The component that must serve this operation is unreachable: its
    /// host is suspected or declared dead and the retry budget is
    /// exhausted, so the operation fails fast instead of blocking.
    Unavailable,
    /// The operation completed, but through a degraded path (e.g. a KV
    /// read served by a replica because the owner is unreachable) and the
    /// result carries weaker guarantees than the healthy-path answer.
    Degraded,
}

/// The single error type of the overlay API: what went wrong
/// ([`ErrorKind`]) plus optional free-form context for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoronetError {
    kind: ErrorKind,
    context: Option<String>,
}

impl VoronetError {
    /// Creates an error with no context.
    pub fn new(kind: ErrorKind) -> Self {
        VoronetError {
            kind,
            context: None,
        }
    }

    /// Creates an error carrying a context string.
    pub fn with_context(kind: ErrorKind, context: impl Into<String>) -> Self {
        VoronetError {
            kind,
            context: Some(context.into()),
        }
    }

    /// An [`ErrorKind::UnknownObject`] naming `id`.
    pub(crate) fn unknown(id: ObjectId) -> Self {
        VoronetError::new(ErrorKind::UnknownObject(id))
    }

    /// An [`ErrorKind::InvariantViolation`] carrying its diagnostic.
    pub fn invariant(detail: impl Into<String>) -> Self {
        VoronetError::with_context(ErrorKind::InvariantViolation, detail)
    }

    /// The failure classification.
    pub fn kind(&self) -> &ErrorKind {
        &self.kind
    }

    /// The context string, when one was attached.
    pub fn context(&self) -> Option<&str> {
        self.context.as_deref()
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorKind::UnknownObject(o) => write!(f, "object {o} is not in the overlay"),
            ErrorKind::DuplicatePosition(o) => {
                write!(f, "an object ({o}) already occupies this position")
            }
            ErrorKind::OutsideDomain => write!(f, "position outside the attribute domain"),
            ErrorKind::NotFinite => write!(f, "position has a non-finite coordinate"),
            ErrorKind::UnknownBootstrap(o) => write!(f, "bootstrap object {o} is unknown"),
            ErrorKind::OperationLost => {
                write!(
                    f,
                    "the operation's protocol messages were lost in the network"
                )
            }
            ErrorKind::InvariantViolation => write!(f, "overlay invariant violated"),
            ErrorKind::Unsupported => {
                write!(f, "the engine does not support this operation")
            }
            ErrorKind::Unavailable => {
                write!(f, "the serving host is unavailable (suspected or dead)")
            }
            ErrorKind::Degraded => {
                write!(f, "served through a degraded path with weaker guarantees")
            }
        }
    }
}

impl std::fmt::Display for VoronetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.context {
            Some(ctx) => write!(f, "{}: {ctx}", self.kind),
            None => write!(f, "{}", self.kind),
        }
    }
}

impl std::error::Error for VoronetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = VoronetError::invariant("close relation o1 ↔ o2 is not symmetric");
        assert_eq!(e.kind(), &ErrorKind::InvariantViolation);
        let text = e.to_string();
        assert!(text.contains("invariant violated"));
        assert!(text.contains("not symmetric"));
        let bare = VoronetError::new(ErrorKind::OutsideDomain);
        assert_eq!(bare.to_string(), "position outside the attribute domain");
    }

    #[test]
    fn fault_taxonomy_variants_render() {
        let e = VoronetError::with_context(ErrorKind::Unavailable, "host 3 dead");
        assert!(e.to_string().contains("unavailable"));
        assert!(e.to_string().contains("host 3 dead"));
        let e = VoronetError::new(ErrorKind::Degraded);
        assert!(e.to_string().contains("degraded"));
    }
}
