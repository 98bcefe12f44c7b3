//! Instruction traces consumed by the timing model.
//!
//! Workload generators (crate `ref-workloads`) produce iterators of [`Op`];
//! the core model (`crate::core`) replays them against the memory
//! hierarchy. Keeping the interface at the instruction level lets the same
//! trace drive both single-core profiling and multi-core partitioned runs.

/// One dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A non-memory instruction (ALU, branch, ...).
    Compute,
    /// A load from the given byte address.
    Load(u64),
    /// A store to the given byte address.
    Store(u64),
}

impl Op {
    /// The byte address touched, if this is a memory operation.
    pub fn address(self) -> Option<u64> {
        match self {
            Op::Compute => None,
            Op::Load(a) | Op::Store(a) => Some(a),
        }
    }

    /// Whether this instruction accesses memory.
    pub fn is_memory(self) -> bool {
        !matches!(self, Op::Compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_extraction() {
        assert_eq!(Op::Compute.address(), None);
        assert_eq!(Op::Load(64).address(), Some(64));
        assert_eq!(Op::Store(128).address(), Some(128));
    }

    #[test]
    fn memory_classification() {
        assert!(!Op::Compute.is_memory());
        assert!(Op::Load(0).is_memory());
        assert!(Op::Store(0).is_memory());
    }
}
