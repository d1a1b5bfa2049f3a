//! Memory system fault conditions.

use core::fmt;

use tcf_isa::word::Addr;

/// Faults raised by the memory system.
///
/// The hardware the model abstracts has no recoverable memory traps, so
/// execution engines treat any `MemError` as a fatal guest-program fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Access past the end of the shared address space.
    OutOfBounds {
        /// Offending address.
        addr: Addr,
        /// Size of the space accessed.
        size: usize,
    },
    /// Access past the end of a local memory block.
    LocalOutOfBounds {
        /// Offending address.
        addr: Addr,
        /// Size of the block.
        size: usize,
        /// Which group's block.
        group: usize,
    },
    /// Two concurrent plain writes disagreed under [`CrcwPolicy::Common`].
    ///
    /// [`CrcwPolicy::Common`]: crate::shared::CrcwPolicy::Common
    CommonWriteConflict {
        /// Address written.
        addr: Addr,
    },
    /// Concurrent access to one address under an exclusive-access policy.
    ExclusiveViolation {
        /// Address accessed.
        addr: Addr,
        /// Number of concurrent references observed.
        refs: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr, size } => {
                write!(f, "shared address {addr} out of bounds (size {size})")
            }
            MemError::LocalOutOfBounds { addr, size, group } => write!(
                f,
                "local address {addr} out of bounds (size {size}, group {group})"
            ),
            MemError::CommonWriteConflict { addr } => {
                write!(
                    f,
                    "conflicting concurrent writes to {addr} under Common CRCW"
                )
            }
            MemError::ExclusiveViolation { addr, refs } => write!(
                f,
                "{refs} concurrent references to {addr} under an exclusive policy"
            ),
        }
    }
}

impl std::error::Error for MemError {}
