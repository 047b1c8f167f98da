//! Structured errors for the in-situ pipeline.
//!
//! The bitmap store *replaces* the raw simulation output, so a failure
//! anywhere in the generate→select→persist path is potential data loss and
//! must be reported precisely, never collapsed into a panic or a bare
//! `None`. Every variant is `Clone + PartialEq` so failure reports are
//! comparable across runs — the property the deterministic fault-injection
//! tests assert on.

use std::fmt;

/// Result alias used throughout `ibis-insitu`.
pub type Result<T> = std::result::Result<T, IbisError>;

/// Which pipeline actor a failure originated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerRole {
    /// The simulation (producer) side.
    Producer,
    /// The reduction/selection (consumer) side.
    Consumer,
    /// A cluster node thread.
    Node,
    /// The cluster's selection coordinator.
    Coordinator,
}

impl fmt::Display for WorkerRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WorkerRole::Producer => "producer",
            WorkerRole::Consumer => "consumer",
            WorkerRole::Node => "node",
            WorkerRole::Coordinator => "coordinator",
        })
    }
}

/// Why a serialized blob failed to decode. Produced by
/// [`crate::io::codec::decode`] / [`crate::io::codec::decode_index`];
/// guaranteed to cover every malformation a byte stream can exhibit, so
/// decoding is total (never panics) on adversarial input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The blob does not start with the `IBIS` magic.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// The blob ends before a required field.
    Truncated {
        /// Byte offset at which more input was required.
        at: usize,
    },
    /// Bytes remain after the last decoded field.
    TrailingBytes {
        /// Number of undecoded trailing bytes.
        extra: usize,
    },
    /// The binner specification is invalid (non-finite edge, zero width,
    /// unordered edges, zero bins, or an unknown tag).
    BadBinner,
    /// A bitvector's compressed words are malformed (overlong fill,
    /// unmasked literal, coverage mismatch).
    BadBitvector(ibis_core::RawWahError),
    /// A bitvector's length disagrees with the index header.
    LengthMismatch {
        /// Length declared by the index header.
        expected: u64,
        /// Length the bitvector decoded to.
        got: u64,
    },
    /// The bin count disagrees with the binner.
    BinCountMismatch {
        /// Bins the binner defines.
        expected: usize,
        /// Bins the blob carries.
        got: usize,
    },
    /// A non-WAH codec payload (Roaring containers) is malformed, or a bin
    /// carries an unknown codec tag.
    BadCodec {
        /// Bin the payload belongs to.
        bin: usize,
        /// What the codec's validator found.
        detail: String,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => f.write_str("bad magic (not an IBIS blob)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::Truncated { at } => write!(f, "truncated at byte {at}"),
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
            DecodeError::BadBinner => f.write_str("invalid binner specification"),
            DecodeError::BadBitvector(e) => write!(f, "malformed bitvector: {e}"),
            DecodeError::LengthMismatch { expected, got } => {
                write!(f, "bitvector length {got} != declared {expected}")
            }
            DecodeError::BinCountMismatch { expected, got } => {
                write!(f, "bin count {got} != binner's {expected}")
            }
            DecodeError::BadCodec { bin, detail } => {
                write!(f, "bin {bin}: malformed codec payload: {detail}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The error type of the in-situ pipeline, store, and cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum IbisError {
    /// Invalid run configuration.
    Config(String),
    /// A filesystem operation failed. The OS error is captured as a kind +
    /// message pair so the variant stays `Clone`/`PartialEq`.
    Io {
        /// What was being done (`"write s000001_temperature.ibis"`).
        context: String,
        /// The `std::io::ErrorKind` of the underlying error.
        kind: std::io::ErrorKind,
        /// The underlying error's message.
        message: String,
    },
    /// A blob failed to decode.
    Decode {
        /// File the blob came from, when known.
        file: Option<String>,
        /// The typed decode failure.
        source: DecodeError,
    },
    /// A stored blob failed its integrity check (framing, kind or CRC
    /// mismatch, or a payload that breaks its own invariants).
    Corrupt {
        /// The offending file.
        file: String,
        /// What the check found.
        detail: String,
    },
    /// A store manifest is malformed.
    Manifest {
        /// 1-based line number.
        line: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// A requested store entry does not exist.
    NotFound {
        /// Requested step.
        step: usize,
        /// Requested variable.
        variable: String,
    },
    /// A worker thread panicked; the panic was contained.
    WorkerPanic {
        /// Which actor panicked.
        role: WorkerRole,
        /// The time-step being processed, when known.
        step: Option<usize>,
        /// The panic payload, stringified.
        message: String,
    },
    /// A channel peer disappeared (its thread died or exited early).
    Disconnected {
        /// The actor whose peer vanished.
        role: WorkerRole,
        /// What was being waited for.
        waiting_for: String,
    },
    /// A storage write kept failing after every retry.
    StorageExhausted {
        /// Storage site description.
        site: String,
        /// Attempts made (including the first).
        attempts: u32,
        /// The last failure's message.
        last_error: String,
    },
    /// A storage operation exceeded its retry deadline.
    DeadlineExceeded {
        /// Storage site description.
        site: String,
        /// The deadline in modeled seconds.
        deadline: f64,
    },
    /// A cluster node failed; carries every node's failure.
    NodeFailure {
        /// `(node id, failure description)` per failed node.
        failures: Vec<(usize, String)>,
    },
    /// The selection coordinator gave up (timeout or lost quorum).
    Coordination(String),
    /// The run was killed by an injected fault (crash simulation).
    Killed {
        /// The time-step at which the kill fired.
        step: usize,
    },
    /// A checkpoint file exists but cannot be trusted.
    BadCheckpoint(String),
    /// A subset/correlation query is malformed (NaN bound, out-of-range
    /// region, mismatched variables) — the analysis layer's typed error,
    /// surfaced so a bad query can never kill a long-running pipeline.
    Query(ibis_analysis::QueryError),
    /// A query batch request could not be understood (bad JSON, missing or
    /// mistyped field).
    BadRequest {
        /// Zero-based position in the batch, when the batch itself parsed.
        index: Option<usize>,
        /// What is wrong with the request.
        reason: String,
    },
}

impl fmt::Display for IbisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IbisError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            IbisError::Io {
                context,
                kind,
                message,
            } => write!(f, "I/O error while {context}: {message} ({kind:?})"),
            IbisError::Decode { file, source } => match file {
                Some(file) => write!(f, "{file}: decode failed: {source}"),
                None => write!(f, "decode failed: {source}"),
            },
            IbisError::Corrupt { file, detail } => write!(f, "{file}: corrupt: {detail}"),
            IbisError::Manifest { line, reason } => {
                write!(f, "MANIFEST line {line}: {reason}")
            }
            IbisError::NotFound { step, variable } => {
                write!(f, "no entry for step {step} variable {variable:?}")
            }
            IbisError::WorkerPanic {
                role,
                step,
                message,
            } => match step {
                Some(s) => write!(f, "{role} panicked at step {s}: {message}"),
                None => write!(f, "{role} panicked: {message}"),
            },
            IbisError::Disconnected { role, waiting_for } => {
                write!(f, "{role} lost its peer while waiting for {waiting_for}")
            }
            IbisError::StorageExhausted {
                site,
                attempts,
                last_error,
            } => write!(
                f,
                "{site}: write failed after {attempts} attempts: {last_error}"
            ),
            IbisError::DeadlineExceeded { site, deadline } => {
                write!(f, "{site}: retry deadline of {deadline}s exceeded")
            }
            IbisError::NodeFailure { failures } => {
                write!(f, "{} node(s) failed:", failures.len())?;
                for (id, msg) in failures {
                    write!(f, " [node {id}: {msg}]")?;
                }
                Ok(())
            }
            IbisError::Coordination(msg) => write!(f, "selection coordination failed: {msg}"),
            IbisError::Killed { step } => write!(f, "run killed at step {step} (injected)"),
            IbisError::BadCheckpoint(msg) => write!(f, "unusable checkpoint: {msg}"),
            IbisError::Query(e) => write!(f, "invalid query: {e}"),
            IbisError::BadRequest { index, reason } => match index {
                Some(i) => write!(f, "query {i}: bad request: {reason}"),
                None => write!(f, "bad request: {reason}"),
            },
        }
    }
}

impl std::error::Error for IbisError {}

impl IbisError {
    /// Wraps a `std::io::Error` with context, flattening it into the
    /// clonable representation.
    pub fn io(context: impl Into<String>, err: &std::io::Error) -> Self {
        IbisError::Io {
            context: context.into(),
            kind: err.kind(),
            message: err.to_string(),
        }
    }
}

impl From<DecodeError> for IbisError {
    fn from(source: DecodeError) -> Self {
        IbisError::Decode { file: None, source }
    }
}

impl From<ibis_analysis::QueryError> for IbisError {
    fn from(source: ibis_analysis::QueryError) -> Self {
        IbisError::Query(source)
    }
}

/// Renders a caught panic payload as a message (the two payload types the
/// standard `panic!` machinery produces, with a fallback).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        let e = IbisError::io(
            "write s000001_temperature.ibis",
            &std::io::Error::other("disk on fire"),
        );
        let s = e.to_string();
        assert!(s.contains("s000001_temperature.ibis") && s.contains("disk on fire"));

        let e = IbisError::WorkerPanic {
            role: WorkerRole::Consumer,
            step: Some(7),
            message: "boom".into(),
        };
        assert!(e.to_string().contains("consumer panicked at step 7"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = IbisError::Killed { step: 3 };
        let b = IbisError::Killed { step: 3 };
        assert_eq!(a, b);
        assert_ne!(a, IbisError::Killed { step: 4 });
    }

    #[test]
    fn panic_payloads_stringify() {
        let p = std::panic::catch_unwind(|| panic!("static msg")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "static msg");
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 3)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 3");
    }
}
